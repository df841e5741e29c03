//! XML view updates (§2.1) and their relational-view counterparts (§2.3).

use rxview_atg::NodeId;
use rxview_relstore::Tuple;
use rxview_xmlkit::{parse_xpath, XPath};
use std::fmt;

/// An XML view update: `insert (A, t) into p` or `delete p` (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlUpdate {
    /// `insert (A, t) into p`: for every node reached by `p`, add the subtree
    /// `ST(A, t)` as its rightmost child (and, per the revised semantics, at
    /// every other node sharing the target's type and semantic attribute).
    Insert {
        /// Element type name `A` of the inserted subtree root.
        ty: String,
        /// The instantiation `t` of the semantic attribute `$A`.
        attr: Tuple,
        /// The target path `p`.
        path: XPath,
    },
    /// `delete p`: for every node `v` reached by `p`, remove the edge from
    /// each parent through which `p` reaches `v` (shared subtrees are never
    /// physically removed, §2.3).
    Delete {
        /// The target path `p`.
        path: XPath,
    },
}

impl XmlUpdate {
    /// Convenience constructor parsing the XPath.
    pub fn insert(
        ty: impl Into<String>,
        attr: Tuple,
        path: &str,
    ) -> Result<Self, rxview_xmlkit::xpath::ParseError> {
        Ok(XmlUpdate::Insert {
            ty: ty.into(),
            attr,
            path: parse_xpath(path)?,
        })
    }

    /// Convenience constructor parsing the XPath.
    pub fn delete(path: &str) -> Result<Self, rxview_xmlkit::xpath::ParseError> {
        Ok(XmlUpdate::Delete {
            path: parse_xpath(path)?,
        })
    }

    /// The update's target path.
    pub fn path(&self) -> &XPath {
        match self {
            XmlUpdate::Insert { path, .. } | XmlUpdate::Delete { path } => path,
        }
    }

    /// Whether this is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, XmlUpdate::Insert { .. })
    }
}

impl fmt::Display for XmlUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlUpdate::Insert { ty, attr, path } => {
                write!(f, "insert ({ty}, {attr}) into {path}")
            }
            XmlUpdate::Delete { path } => write!(f, "delete {path}"),
        }
    }
}

/// The relational-view update `∆V`: group edge insertions or deletions over
/// the edge relations of the DAG (§2.3). Its [`NodeId`]s name nodes of the
/// state (the snapshot epoch) it was derived against: a collected node's id
/// is handed out again, so they mean nothing in a later one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewDelta {
    /// Edges `(parent, child)` to insert.
    pub inserts: Vec<(NodeId, NodeId)>,
    /// Edges `(parent, child)` to delete.
    pub deletes: Vec<(NodeId, NodeId)>,
}

impl ViewDelta {
    /// Total number of edge operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// How to react when an update has XML side effects (§2.1): abort, or carry
/// on under the paper's revised semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SideEffectPolicy {
    /// Reject the update if it would have side effects.
    Abort,
    /// Proceed: the update applies at every node sharing the target's
    /// type and semantic attribute (the paper's revised semantics).
    #[default]
    Proceed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_relstore::tuple;

    #[test]
    fn constructors_parse_paths() {
        let u = XmlUpdate::insert(
            "course",
            tuple!["CS240", "Data Structures"],
            "course[cno=CS650]//course[cno=CS320]/prereq",
        )
        .unwrap();
        assert!(u.is_insert());
        assert_eq!(u.path().steps.len(), 4);
        let d = XmlUpdate::delete("//student[ssn=S02]").unwrap();
        assert!(!d.is_insert());
    }

    #[test]
    fn display_round_trips() {
        let u = XmlUpdate::delete("//course[cno=CS320]").unwrap();
        assert_eq!(u.to_string(), "delete //course[cno=\"CS320\"]");
    }

    #[test]
    fn view_delta_counts() {
        let mut d = ViewDelta::default();
        assert!(d.is_empty());
        d.inserts.push((NodeId(0), NodeId(1)));
        d.deletes.push((NodeId(2), NodeId(3)));
        assert_eq!(d.len(), 2);
    }
}
