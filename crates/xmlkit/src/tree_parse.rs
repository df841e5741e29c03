//! Parsing serialized XML back into an [`XmlTree`] — the inverse of
//! [`XmlTree::serialize`], used for round-trip validation and for loading
//! hand-written fixtures in tests and tools.
//!
//! The dialect is exactly what the serializer produces: nested elements,
//! self-closing tags, and text content in `pcdata` elements (whose types
//! come from the DTD). Attributes are accepted and ignored except for the
//! `ref` attribute of compact serialization, which is *not* resolvable on a
//! tree and is rejected. Text is kept as the UTF-8 it was written in, and
//! nesting is bounded (`MAX_NESTING`), so every input is `Ok` or `Err`.

use crate::dtd::Dtd;
use crate::tree::{NodeId, XmlTree};
use std::fmt;

/// XML parse errors with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlParseError {
    /// Byte offset.
    pub pos: usize,
    /// Message.
    pub msg: String,
}

impl fmt::Display for XmlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for XmlParseError {}

/// Deepest element nesting [`parse_tree`] descends into. Each level costs
/// the parser a stack frame, as it costs the serializer and structural
/// equality of the tree it returns, so caller text cannot nest deeper.
const MAX_NESTING: usize = 1024;

/// Parses a serialized XML document into a tree, resolving element names
/// through `dtd`.
pub fn parse_tree(input: &str, dtd: &Dtd) -> Result<XmlTree, XmlParseError> {
    let mut p = XmlParser {
        input,
        pos: 0,
        depth: 0,
        dtd,
    };
    p.skip_ws();
    let (name, self_closing) = p.open_tag()?;
    let ty = p.resolve(&name)?;
    let mut tree = XmlTree::new(ty);
    let root = tree.root();
    if !self_closing {
        p.parse_content(&mut tree, root, &name)?;
    }
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input"));
    }
    Ok(tree)
}

struct XmlParser<'a> {
    input: &'a str,
    pos: usize,
    /// Elements open around the one being parsed.
    depth: usize,
    dtd: &'a Dtd,
}

impl<'a> XmlParser<'a> {
    fn err(&self, msg: &str) -> XmlParseError {
        XmlParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn resolve(&self, name: &str) -> Result<crate::dtd::TypeId, XmlParseError> {
        self.dtd
            .type_id(name)
            .ok_or_else(|| self.err(&format!("unknown element type `{name}`")))
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    /// Parses `<name attr="..">` or `<name/>`; returns (name, self-closing).
    fn open_tag(&mut self) -> Result<(String, bool), XmlParseError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        // Skip attributes (quoted values may contain '>').
        loop {
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((name, false));
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok((name, true));
                }
                Some(b'"') => {
                    self.pos += 1;
                    while self.peek().is_some_and(|c| c != b'"') {
                        self.pos += 1;
                    }
                    if self.peek() != Some(b'"') {
                        return Err(self.err("unterminated attribute value"));
                    }
                    self.pos += 1;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.err("unterminated tag")),
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_owned())
    }

    /// Parses children + text up to `</name>`. Every level of nesting passes
    /// through here, so this is where it is bounded.
    fn parse_content(
        &mut self,
        tree: &mut XmlTree,
        node: NodeId,
        name: &str,
    ) -> Result<(), XmlParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err("elements nested too deeply"));
        }
        self.depth += 1;
        let parsed = self.parse_content_at_depth(tree, node, name);
        self.depth -= 1;
        parsed
    }

    fn parse_content_at_depth(
        &mut self,
        tree: &mut XmlTree,
        node: NodeId,
        name: &str,
    ) -> Result<(), XmlParseError> {
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(&format!("unterminated <{name}>"))),
                Some(b'<') => {
                    if self.input[self.pos..].starts_with("</") {
                        self.pos += 2;
                        let close = self.name()?;
                        if close != name {
                            return Err(
                                self.err(&format!("mismatched close tag </{close}> for <{name}>"))
                            );
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return Err(self.err("expected '>'"));
                        }
                        self.pos += 1;
                        let trimmed = text.trim();
                        if !trimmed.is_empty() {
                            tree.set_node_text(node, trimmed);
                        }
                        return Ok(());
                    }
                    let (child_name, self_closing) = self.open_tag()?;
                    let cty = self.resolve(&child_name)?;
                    let child = tree.add_child(node, cty);
                    if !self_closing {
                        self.parse_content(tree, child, &child_name)?;
                    }
                }
                Some(_) => {
                    // Up to the next tag: `<` is ASCII, so both ends of the
                    // run are character boundaries.
                    let run = &self.input[self.pos..];
                    let len = run.find('<').unwrap_or(run.len());
                    text.push_str(&run[..len]);
                    self.pos += len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::registrar_dtd;

    fn sample_tree() -> (Dtd, XmlTree) {
        let d = registrar_dtd();
        let ty = |n: &str| d.type_id(n).unwrap();
        let mut t = XmlTree::new(d.root());
        let c = t.add_child(t.root(), ty("course"));
        t.add_text_child(c, ty("cno"), "CS320");
        t.add_text_child(c, ty("title"), "Algorithms");
        let pr = t.add_child(c, ty("prereq"));
        let _ = pr;
        let tb = t.add_child(c, ty("takenBy"));
        let s = t.add_child(tb, ty("student"));
        t.add_text_child(s, ty("ssn"), "S02");
        t.add_text_child(s, ty("name"), "Bob");
        (d, t)
    }

    #[test]
    fn serialize_parse_round_trip() {
        let (d, t) = sample_tree();
        let text = t.serialize(&d);
        let parsed = parse_tree(&text, &d).unwrap();
        assert!(t.tree_eq(&parsed), "round trip broke:\n{text}");
    }

    #[test]
    fn self_closing_and_empty_elements() {
        let d = registrar_dtd();
        let t = parse_tree(
            "<db><course><cno>X</cno><title>Y</title><prereq/><takenBy></takenBy></course></db>",
            &d,
        )
        .unwrap();
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn attributes_are_skipped() {
        let d = registrar_dtd();
        let t = parse_tree("<db><course id=\"n3\"><cno>X</cno></course></db>", &d).unwrap();
        let course = t.node(t.root()).children()[0];
        assert_eq!(t.node(t.node(course).children()[0]).text(), Some("X"));
    }

    #[test]
    fn errors_are_reported() {
        let d = registrar_dtd();
        assert!(parse_tree("", &d).is_err());
        assert!(parse_tree("<db>", &d).is_err());
        assert!(parse_tree("<db></course>", &d).is_err());
        assert!(parse_tree("<nonexistent/>", &d).is_err());
        assert!(parse_tree("<db></db>extra", &d).is_err());
    }

    #[test]
    fn whitespace_only_text_ignored() {
        let d = registrar_dtd();
        let t = parse_tree(
            "<db>\n  <course>\n    <cno>A1</cno>\n  </course>\n</db>",
            &d,
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.node(t.root()).text(), None);
    }
}
