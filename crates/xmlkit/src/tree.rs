//! Arena-based XML trees.
//!
//! Trees materialize (uncompressed) XML views: the expansion `σ(I)` of a DAG,
//! the test oracle for the DAG-based XPath evaluator, and the baseline for
//! the compression benchmarks.

use crate::dtd::{Dtd, TypeId};
use std::fmt::Write as _;

/// Identifier of a node within one [`XmlTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single element node.
#[derive(Debug, Clone)]
pub struct Node {
    ty: TypeId,
    text: Option<String>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

impl Node {
    /// The element type.
    pub fn ty(&self) -> TypeId {
        self.ty
    }

    /// Text content (for `pcdata` elements).
    pub fn text(&self) -> Option<&str> {
        self.text.as_deref()
    }

    /// Parent node, if not the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Children in document order.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }
}

/// An XML document tree.
#[derive(Debug, Clone)]
pub struct XmlTree {
    nodes: Vec<Node>,
    root: NodeId,
}

impl XmlTree {
    /// Creates a tree with a root element of type `ty`.
    pub fn new(ty: TypeId) -> Self {
        XmlTree {
            nodes: vec![Node {
                ty,
                text: None,
                parent: None,
                children: Vec::new(),
            }],
            root: NodeId(0),
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Appends a child element of type `ty` under `parent`.
    pub fn add_child(&mut self, parent: NodeId, ty: TypeId) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            ty,
            text: None,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Appends a `pcdata` child with text content.
    pub fn add_text_child(
        &mut self,
        parent: NodeId,
        ty: TypeId,
        text: impl Into<String>,
    ) -> NodeId {
        let id = self.add_child(parent, ty);
        self.nodes[id.index()].text = Some(text.into());
        id
    }

    /// The concatenated text value of a node's subtree (XPath string value).
    pub fn text_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        let n = self.node(id);
        if let Some(t) = &n.text {
            out.push_str(t);
        }
        for &c in &n.children {
            self.collect_text(c, out);
        }
    }

    /// All descendants of `id` (excluding `id`), pre-order.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.node(id).children().to_vec();
        stack.reverse();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.node(n).children().iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Serializes to indented XML text using type names from `dtd`.
    pub fn serialize(&self, dtd: &Dtd) -> String {
        let mut out = String::new();
        self.write_node(dtd, self.root, 0, &mut out);
        out
    }

    fn write_node(&self, dtd: &Dtd, id: NodeId, depth: usize, out: &mut String) {
        let n = self.node(id);
        let name = dtd.name(n.ty);
        let pad = "  ".repeat(depth);
        if let Some(t) = &n.text {
            let _ = writeln!(out, "{pad}<{name}>{t}</{name}>");
        } else if n.children.is_empty() {
            let _ = writeln!(out, "{pad}<{name}/>");
        } else {
            let _ = writeln!(out, "{pad}<{name}>");
            for &c in &n.children {
                self.write_node(dtd, c, depth + 1, out);
            }
            let _ = writeln!(out, "{pad}</{name}>");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::registrar_dtd;

    fn sample() -> (Dtd, XmlTree) {
        let d = registrar_dtd();
        let course = d.type_id("course").unwrap();
        let cno = d.type_id("cno").unwrap();
        let title = d.type_id("title").unwrap();
        let mut t = XmlTree::new(d.root());
        let c = t.add_child(t.root(), course);
        t.add_text_child(c, cno, "CS320");
        t.add_text_child(c, title, "Algorithms");
        (d, t)
    }

    #[test]
    fn build_and_navigate() {
        let (d, t) = sample();
        assert_eq!(t.len(), 4);
        let root = t.node(t.root());
        assert_eq!(root.children().len(), 1);
        let course = t.node(root.children()[0]);
        assert_eq!(d.name(course.ty()), "course");
        assert_eq!(course.children().len(), 2);
        assert_eq!(t.node(course.children()[0]).text(), Some("CS320"));
    }

    #[test]
    fn parents_are_tracked() {
        let (_, t) = sample();
        let course = t.node(t.root()).children()[0];
        assert_eq!(t.node(course).parent(), Some(t.root()));
        assert_eq!(t.node(t.root()).parent(), None);
    }

    #[test]
    fn text_value_concatenates_descendants() {
        let (_, t) = sample();
        let course = t.node(t.root()).children()[0];
        assert_eq!(t.text_value(course), "CS320Algorithms");
        let cno = t.node(course).children()[0];
        assert_eq!(t.text_value(cno), "CS320");
    }

    #[test]
    fn descendants_visit_document_order() {
        let (_, t) = sample();
        let order = t.descendants(t.root());
        assert_eq!(order.len(), 3);
        // cno before title
        assert_eq!(t.node(order[1]).text(), Some("CS320"));
        assert_eq!(t.node(order[2]).text(), Some("Algorithms"));
    }

    #[test]
    fn descendants_exclude_self() {
        let (_, t) = sample();
        let course = t.node(t.root()).children()[0];
        assert_eq!(t.descendants(t.root()).len(), 3);
        assert_eq!(t.descendants(course).len(), 2);
        assert!(t.descendants(course).iter().all(|&n| n != course));
    }

    #[test]
    fn serialization_shape() {
        let (d, t) = sample();
        let s = t.serialize(&d);
        assert!(s.contains("<db>"));
        assert!(s.contains("<cno>CS320</cno>"));
        assert!(s.contains("</db>"));
    }
}
