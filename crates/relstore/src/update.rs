//! Group updates on base relations (the paper's `∆R`, §2.4/§4).

use crate::tuple::Tuple;
use std::fmt;

/// A single tuple operation on a named base relation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum TupleOp {
    /// Insert `tuple` into `table`.
    Insert { table: String, tuple: Tuple },
    /// Delete the tuple with primary key `key` from `table`.
    Delete { table: String, key: Tuple },
}

impl TupleOp {
    /// The target table name.
    pub fn table(&self) -> &str {
        match self {
            TupleOp::Insert { table, .. } | TupleOp::Delete { table, .. } => table,
        }
    }
}

impl fmt::Display for TupleOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TupleOp::Insert { table, tuple } => write!(f, "insert {tuple} into {table}"),
            TupleOp::Delete { table, key } => write!(f, "delete key {key} from {table}"),
        }
    }
}

/// A group update `∆R`: a set of tuple operations applied atomically.
///
/// The paper's translation algorithms always produce homogeneous groups
/// (only insertions or only deletions, §4.1); [`GroupUpdate`] does not
/// enforce this.
#[derive(Debug, Clone, Default)]
pub struct GroupUpdate {
    ops: Vec<TupleOp>,
    seen: std::collections::BTreeSet<TupleOp>,
}

impl PartialEq for GroupUpdate {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

impl Eq for GroupUpdate {}

impl GroupUpdate {
    /// An empty group update.
    pub fn new() -> Self {
        GroupUpdate::default()
    }

    /// Appends an operation, skipping exact duplicates (set-keyed, so
    /// building a large group stays `O(n log n)` rather than quadratic).
    pub fn push(&mut self, op: TupleOp) {
        if self.seen.insert(op.clone()) {
            self.ops.push(op);
        }
    }

    /// Adds an insertion.
    pub fn insert(&mut self, table: impl Into<String>, tuple: Tuple) {
        self.push(TupleOp::Insert {
            table: table.into(),
            tuple,
        });
    }

    /// Adds a deletion by key.
    pub fn delete(&mut self, table: impl Into<String>, key: Tuple) {
        self.push(TupleOp::Delete {
            table: table.into(),
            key,
        });
    }

    /// The operations in insertion order.
    pub fn ops(&self) -> &[TupleOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Merges another group into this one.
    pub fn extend(&mut self, other: GroupUpdate) {
        for op in other.ops {
            self.push(op);
        }
    }
}

impl fmt::Display for GroupUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "group update ({} ops):", self.ops.len())?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn push_deduplicates() {
        let mut g = GroupUpdate::new();
        g.insert("t", tuple![1i64]);
        g.insert("t", tuple![1i64]);
        g.delete("t", tuple![2i64]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn extend_merges_without_duplicates() {
        let mut a = GroupUpdate::new();
        a.insert("t", tuple![1i64]);
        let mut b = GroupUpdate::new();
        b.insert("t", tuple![1i64]);
        b.insert("t", tuple![2i64]);
        a.extend(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn display_mentions_ops() {
        let mut g = GroupUpdate::new();
        g.insert("course", tuple!["CS240", "Data Structures"]);
        let s = g.to_string();
        assert!(s.contains("insert"));
        assert!(s.contains("course"));
    }
}
