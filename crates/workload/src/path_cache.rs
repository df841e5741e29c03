//! The parsed-XPath cache the workload generators draw their paths from.
//!
//! Generated streams re-issue the same path strings constantly, so paths
//! are parsed once through a [`PathCache`] instead of per operation
//! (re-parsing was this crate's analogue of the regex-recompilation hot
//! spot called out in the related platynui-xpath performance review).

use rxview_core::XmlUpdate;
use rxview_relstore::Tuple;
use rxview_xmlkit::xpath::ParseError;
use rxview_xmlkit::{parse_xpath, XPath};
use std::collections::HashMap;

/// A memoizing XPath parser: each distinct path string is parsed once.
#[derive(Debug, Default)]
pub(crate) struct PathCache {
    map: HashMap<String, XPath>,
}

impl PathCache {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        PathCache::default()
    }

    /// Parses `text`, serving repeats from the cache.
    pub(crate) fn parse(&mut self, text: &str) -> Result<XPath, ParseError> {
        if let Some(p) = self.map.get(text) {
            return Ok(p.clone());
        }
        let p = parse_xpath(text)?;
        self.map.insert(text.to_owned(), p.clone());
        Ok(p)
    }

    /// A `delete p` update with the path served from the cache.
    pub(crate) fn delete(&mut self, path: &str) -> Result<XmlUpdate, ParseError> {
        Ok(XmlUpdate::Delete {
            path: self.parse(path)?,
        })
    }

    /// An `insert (A, t) into p` update with the path served from the cache.
    pub(crate) fn insert(
        &mut self,
        ty: impl Into<String>,
        attr: Tuple,
        path: &str,
    ) -> Result<XmlUpdate, ParseError> {
        Ok(XmlUpdate::Insert {
            ty: ty.into(),
            attr,
            path: self.parse(path)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_are_served_from_the_cache() {
        let mut cache = PathCache::new();
        assert!(cache.map.is_empty());
        let first = cache.parse("node[id=7]/sub/node").unwrap();
        let again = cache.delete("node[id=7]/sub/node").unwrap();
        assert_eq!(again.path(), &first);
        assert_eq!(cache.map.len(), 1);
        assert!(cache.parse("node[").is_err());
        assert_eq!(cache.map.len(), 1, "a failed parse caches nothing");
    }
}
