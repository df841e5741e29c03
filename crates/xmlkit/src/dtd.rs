//! DTDs in the normalized form of §2.2.
//!
//! A DTD `D = (E, P, r)` has element types `E`, a root type `r`, and one
//! production per type:
//!
//! ```text
//! α ::= pcdata | ε | B₁,…,Bₙ | B₁+…+Bₙ | B*
//! ```
//!
//! Arbitrary DTDs can be normalized into this form in linear time (the paper,
//! footnote ①), so this is the only form we model. A DTD is *recursive* if a
//! type is defined (directly or indirectly) in terms of itself.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Interned identifier of an element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub u32);

impl TypeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The production associated with an element type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Production {
    /// `A → pcdata`: text content.
    PcData,
    /// `A → ε`: empty content.
    Empty,
    /// `A → B₁, …, Bₙ`: fixed sequence of children.
    Sequence(Vec<TypeId>),
    /// `A → B₁ + … + Bₙ`: exactly one of the alternatives.
    Alternation(Vec<TypeId>),
    /// `A → B*`: any number of `B` children. The only form under which
    /// XML view insertions/deletions of `B` children are valid (§2.4).
    Star(TypeId),
}

impl Production {
    /// The child types mentioned by this production.
    pub fn child_types(&self) -> &[TypeId] {
        match self {
            Production::PcData | Production::Empty => &[],
            Production::Sequence(ts) | Production::Alternation(ts) => ts,
            Production::Star(t) => std::slice::from_ref(t),
        }
    }
}

/// Errors in DTD construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtdError {
    /// A production was defined twice for the same type.
    DuplicateProduction(String),
    /// The root type has no production and is not mentioned anywhere.
    UnknownRoot(String),
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtdError::DuplicateProduction(t) => write!(f, "duplicate production for `{t}`"),
            DtdError::UnknownRoot(t) => write!(f, "unknown root type `{t}`"),
        }
    }
}

impl std::error::Error for DtdError {}

/// A normalized DTD.
#[derive(Debug, Clone)]
pub struct Dtd {
    names: Vec<String>,
    by_name: HashMap<String, TypeId>,
    prods: Vec<Production>,
    root: TypeId,
    /// The descendant-or-self closure, one row of bit words per type
    /// ([`closure`]).
    closure: Vec<u64>,
}

impl Dtd {
    /// Starts building a DTD rooted at `root`.
    pub fn builder(root: impl Into<String>) -> DtdBuilder {
        DtdBuilder {
            root: root.into(),
            prods: BTreeMap::new(),
        }
    }

    /// The root type.
    pub fn root(&self) -> TypeId {
        self.root
    }

    /// Number of element types.
    pub fn n_types(&self) -> usize {
        self.names.len()
    }

    /// All type ids.
    pub fn types(&self) -> impl Iterator<Item = TypeId> + '_ {
        (0..self.names.len() as u32).map(TypeId)
    }

    /// The name of a type.
    pub fn name(&self, t: TypeId) -> &str {
        &self.names[t.index()]
    }

    /// Resolves a type name.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// The production of a type.
    pub fn production(&self, t: TypeId) -> &Production {
        &self.prods[t.index()]
    }

    /// Child types of `t` per its production.
    pub fn children_of(&self, t: TypeId) -> &[TypeId] {
        self.production(t).child_types()
    }

    /// Whether inserting/deleting a `child` under a `parent` is
    /// schema-valid, i.e. `parent → child*` (§2.4).
    pub fn allows_edit(&self, parent: TypeId, child: TypeId) -> bool {
        matches!(self.production(parent), Production::Star(c) if *c == child)
    }

    /// Whether `t` produces text content.
    pub fn is_pcdata(&self, t: TypeId) -> bool {
        matches!(self.production(t), Production::PcData)
    }

    /// Whether a node of type `desc` can occur at or below a node of type
    /// `anc`: `desc` is reachable from `anc` through zero or more production
    /// edges. A static over-approximation of every instance — a `//` step
    /// below an `anc` node can only ever land on such a type.
    pub fn can_reach(&self, anc: TypeId, desc: TypeId) -> bool {
        let words = self.names.len().div_ceil(64);
        self.closure[anc.index() * words + desc.index() / 64] >> (desc.index() % 64) & 1 == 1
    }

    /// Types reachable from `t` in the type graph (including `t`), in id
    /// order.
    pub fn reachable_from(&self, t: TypeId) -> impl Iterator<Item = TypeId> + '_ {
        self.types().filter(move |&d| self.can_reach(t, d))
    }

    /// Whether the DTD is recursive: some type reaches itself through one or
    /// more production edges.
    pub fn is_recursive(&self) -> bool {
        self.types()
            .any(|t| self.children_of(t).iter().any(|&c| self.can_reach(c, t)))
    }
}

/// The descendant-or-self closure of the production graph `prods`, as rows
/// of `n.div_ceil(64)` bit words: bit `d` of row `a` is set iff type `d` is
/// reachable from type `a`. Saturates `row(a) |= row(c)` over the edges
/// `a → c`; the type graph is a few dozen nodes, closed once per DTD.
fn closure(prods: &[Production]) -> Vec<u64> {
    let words = prods.len().div_ceil(64);
    let mut rows = vec![0u64; prods.len() * words];
    for t in 0..prods.len() {
        rows[t * words + t / 64] |= 1 << (t % 64);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (a, prod) in prods.iter().enumerate() {
            for &c in prod.child_types() {
                for w in 0..words {
                    let add = rows[c.index() * words + w] & !rows[a * words + w];
                    if add != 0 {
                        rows[a * words + w] |= add;
                        changed = true;
                    }
                }
            }
        }
    }
    rows
}

impl fmt::Display for Dtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.types() {
            let name = self.name(t);
            match self.production(t) {
                Production::PcData => writeln!(f, "<!ELEMENT {name} (#PCDATA)>")?,
                Production::Empty => writeln!(f, "<!ELEMENT {name} EMPTY>")?,
                Production::Sequence(ts) => {
                    let body: Vec<_> = ts.iter().map(|&c| self.name(c)).collect();
                    writeln!(f, "<!ELEMENT {name} ({})>", body.join(", "))?
                }
                Production::Alternation(ts) => {
                    let body: Vec<_> = ts.iter().map(|&c| self.name(c)).collect();
                    writeln!(f, "<!ELEMENT {name} ({})>", body.join(" | "))?
                }
                Production::Star(c) => writeln!(f, "<!ELEMENT {name} ({}*)>", self.name(*c))?,
            }
        }
        Ok(())
    }
}

/// Two-phase builder: productions reference types by name; any mentioned but
/// undefined type defaults to `pcdata` (the paper omits PCDATA definitions,
/// e.g. `cno`, `title` in Example 1).
pub struct DtdBuilder {
    root: String,
    prods: BTreeMap<String, ProductionSpec>,
}

enum ProductionSpec {
    PcData,
    Empty,
    Sequence(Vec<String>),
    Alternation(Vec<String>),
    Star(String),
}

impl DtdBuilder {
    fn define(&mut self, name: &str, spec: ProductionSpec) -> Result<&mut Self, DtdError> {
        if self.prods.insert(name.to_owned(), spec).is_some() {
            return Err(DtdError::DuplicateProduction(name.to_owned()));
        }
        Ok(self)
    }

    /// `name → pcdata`.
    pub fn pcdata(&mut self, name: &str) -> Result<&mut Self, DtdError> {
        self.define(name, ProductionSpec::PcData)
    }

    /// `name → ε`.
    pub fn empty(&mut self, name: &str) -> Result<&mut Self, DtdError> {
        self.define(name, ProductionSpec::Empty)
    }

    /// `name → c₁, …, cₙ`.
    pub fn sequence(&mut self, name: &str, children: &[&str]) -> Result<&mut Self, DtdError> {
        self.define(
            name,
            ProductionSpec::Sequence(children.iter().map(|s| s.to_string()).collect()),
        )
    }

    /// `name → c₁ + … + cₙ`.
    pub fn alternation(&mut self, name: &str, children: &[&str]) -> Result<&mut Self, DtdError> {
        self.define(
            name,
            ProductionSpec::Alternation(children.iter().map(|s| s.to_string()).collect()),
        )
    }

    /// `name → child*`.
    pub fn star(&mut self, name: &str, child: &str) -> Result<&mut Self, DtdError> {
        self.define(name, ProductionSpec::Star(child.to_owned()))
    }

    /// Finishes the DTD. Mentioned-but-undefined types become `pcdata`.
    pub fn build(&self) -> Result<Dtd, DtdError> {
        // Collect every mentioned name, root first for a stable id order.
        let mut names: Vec<String> = Vec::new();
        let mut by_name: HashMap<String, TypeId> = HashMap::new();
        let intern = |n: &str, names: &mut Vec<String>, by: &mut HashMap<String, TypeId>| {
            if let Some(&id) = by.get(n) {
                id
            } else {
                let id = TypeId(names.len() as u32);
                names.push(n.to_owned());
                by.insert(n.to_owned(), id);
                id
            }
        };
        intern(&self.root, &mut names, &mut by_name);
        for (name, spec) in &self.prods {
            intern(name, &mut names, &mut by_name);
            let mentioned: Vec<&String> = match spec {
                ProductionSpec::PcData | ProductionSpec::Empty => Vec::new(),
                ProductionSpec::Sequence(cs) | ProductionSpec::Alternation(cs) => {
                    cs.iter().collect()
                }
                ProductionSpec::Star(c) => vec![c],
            };
            for m in mentioned {
                intern(m, &mut names, &mut by_name);
            }
        }
        if !self.prods.contains_key(&self.root) {
            return Err(DtdError::UnknownRoot(self.root.clone()));
        }
        let mut prods = vec![Production::PcData; names.len()];
        for (name, spec) in &self.prods {
            let id = by_name[name];
            prods[id.index()] = match spec {
                ProductionSpec::PcData => Production::PcData,
                ProductionSpec::Empty => Production::Empty,
                ProductionSpec::Sequence(cs) => {
                    Production::Sequence(cs.iter().map(|c| by_name[c]).collect())
                }
                ProductionSpec::Alternation(cs) => {
                    Production::Alternation(cs.iter().map(|c| by_name[c]).collect())
                }
                ProductionSpec::Star(c) => Production::Star(by_name[c]),
            };
        }
        let root = by_name[&self.root];
        Ok(Dtd {
            names,
            by_name,
            closure: closure(&prods),
            prods,
            root,
        })
    }
}

/// The registrar DTD `D₀` of Example 1 — used pervasively in tests and docs.
///
/// ```text
/// <!ELEMENT db (course*)>
/// <!ELEMENT course (cno, title, prereq, takenBy)>
/// <!ELEMENT prereq (course*)>
/// <!ELEMENT takenBy (student*)>
/// <!ELEMENT student (ssn, name)>
/// ```
pub fn registrar_dtd() -> Dtd {
    let mut b = Dtd::builder("db");
    b.star("db", "course").unwrap();
    b.sequence("course", &["cno", "title", "prereq", "takenBy"])
        .unwrap();
    b.star("prereq", "course").unwrap();
    b.star("takenBy", "student").unwrap();
    b.sequence("student", &["ssn", "name"]).unwrap();
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registrar_dtd_builds() {
        let d = registrar_dtd();
        assert_eq!(d.name(d.root()), "db");
        assert_eq!(d.n_types(), 9); // db, course, cno, title, prereq, takenBy, student, ssn, name
    }

    #[test]
    fn registrar_type_count_exact() {
        let d = registrar_dtd();
        // db, course, cno, title, prereq, takenBy, student, ssn, name = 9
        assert_eq!(
            d.types()
                .map(|t| d.name(t).to_owned())
                .collect::<BTreeSet<_>>()
                .len(),
            9
        );
    }

    #[test]
    fn recursion_detected_via_prereq() {
        let d = registrar_dtd();
        assert!(d.is_recursive());
        let ty = |n: &str| d.type_id(n).unwrap();
        assert!(d.can_reach(ty("prereq"), ty("course")));
        assert!(d.can_reach(ty("course"), ty("prereq")));
        assert!(!d.can_reach(ty("student"), ty("takenBy")));
    }

    #[test]
    fn non_recursive_dtd() {
        let mut b = Dtd::builder("a");
        b.sequence("a", &["b", "c"]).unwrap();
        b.star("b", "c").unwrap();
        let d = b.build().unwrap();
        assert!(!d.is_recursive());
    }

    #[test]
    fn allows_edit_only_under_star() {
        let d = registrar_dtd();
        let db = d.root();
        let course = d.type_id("course").unwrap();
        let prereq = d.type_id("prereq").unwrap();
        let cno = d.type_id("cno").unwrap();
        assert!(d.allows_edit(db, course));
        assert!(d.allows_edit(prereq, course));
        assert!(!d.allows_edit(course, cno)); // sequence, not star
        assert!(!d.allows_edit(prereq, cno));
    }

    #[test]
    fn undefined_types_default_to_pcdata() {
        let d = registrar_dtd();
        assert!(d.is_pcdata(d.type_id("cno").unwrap()));
        assert!(d.is_pcdata(d.type_id("name").unwrap()));
        assert!(!d.is_pcdata(d.type_id("course").unwrap()));
    }

    #[test]
    fn duplicate_production_rejected() {
        let mut b = Dtd::builder("a");
        b.star("a", "b").unwrap();
        assert!(matches!(
            b.star("a", "c"),
            Err(DtdError::DuplicateProduction(_))
        ));
    }

    #[test]
    fn unknown_root_rejected() {
        let mut b = Dtd::builder("zzz");
        b.star("a", "b").unwrap();
        assert!(matches!(b.build(), Err(DtdError::UnknownRoot(_))));
    }

    #[test]
    fn reachability_closure() {
        let d = registrar_dtd();
        assert_eq!(d.reachable_from(d.root()).count(), 9); // everything reachable from db
        let ty = |n: &str| d.type_id(n).unwrap();
        assert!(d.can_reach(ty("student"), ty("ssn")));
        assert!(d.can_reach(ty("course"), ty("course"))); // recursive via prereq
        assert!(d.can_reach(ty("takenBy"), ty("ssn")));
        assert!(!d.can_reach(ty("student"), ty("course")));
        assert!(!d.can_reach(ty("ssn"), ty("name")));
    }

    #[test]
    fn display_lists_productions() {
        let d = registrar_dtd();
        let s = d.to_string();
        assert!(s.contains("<!ELEMENT db (course*)>"));
        assert!(s.contains("<!ELEMENT course (cno, title, prereq, takenBy)>"));
        assert!(s.contains("<!ELEMENT cno (#PCDATA)>"));
    }

    #[test]
    fn alternation_and_empty_supported() {
        let mut b = Dtd::builder("doc");
        b.alternation("doc", &["a", "b"]).unwrap();
        b.empty("a").unwrap();
        let d = b.build().unwrap();
        assert!(matches!(d.production(d.root()), Production::Alternation(ts) if ts.len() == 2));
        assert!(matches!(
            d.production(d.type_id("a").unwrap()),
            Production::Empty
        ));
    }
}
