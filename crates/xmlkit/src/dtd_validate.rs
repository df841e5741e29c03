//! Schema-level validation of XML view updates (§2.4).
//!
//! Before any data is touched, an update `∆X` defined by an XPath `p` is
//! validated against the DTD `D`: `p` is "evaluated" on the type graph of
//! `D` to find the element types it can reach, and the update is rejected
//! unless every reachable target admits the edit — an insertion (resp.
//! deletion) of a `B` child under an `A` element is valid only if the
//! production of `A` is `A → B*`. The check runs in `O(|p| |D|²)` time.
//!
//! The walk ([`SchemaReach::of`]) reads no literal, so an update plan holds
//! its shape's walk and admission runs only the verdict
//! ([`SchemaReach::check_insert`] / [`SchemaReach::check_delete`]).

use crate::dtd::{Dtd, TypeId};
use crate::xpath::{Filter, NodeTest, StepKind, XPath};
use std::collections::BTreeSet;
use std::fmt;

/// Outcome of schema-level validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum SchemaViolation {
    /// `p` cannot reach any element type of the DTD: the update is a
    /// guaranteed no-op and is rejected early.
    Unreachable,
    /// An insertion target type whose production is not `target → inserted*`.
    InvalidInsertTarget {
        /// Type reached by `p`.
        target: String,
        /// Type being inserted.
        inserted: String,
    },
    /// A deletion target reached under a parent type whose production is not
    /// `parent → target*`.
    InvalidDeleteTarget {
        /// Parent type through which `p` reaches the target.
        parent: String,
        /// Type being deleted.
        target: String,
    },
    /// The label mentioned in the update does not exist in the DTD.
    UnknownType(String),
}

impl fmt::Display for SchemaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaViolation::Unreachable => {
                write!(f, "the XPath cannot reach any element type of the DTD")
            }
            SchemaViolation::InvalidInsertTarget { target, inserted } => write!(
                f,
                "cannot insert `{inserted}` under `{target}`: production is not `{target} -> {inserted}*`"
            ),
            SchemaViolation::InvalidDeleteTarget { parent, target } => write!(
                f,
                "cannot delete `{target}` under `{parent}`: production is not `{parent} -> {target}*`"
            ),
            SchemaViolation::UnknownType(t) => write!(f, "unknown element type `{t}`"),
        }
    }
}

impl std::error::Error for SchemaViolation {}

/// What §2.4's walk over the DTD's type graph reaches at the end of a path:
/// `(via_parent, type)` pairs in ascending order, `via_parent` `None` when
/// the type is reached "as self" (the root, or through the self axis at the
/// start), otherwise the type of the parent through which the final step
/// arrives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaReach(Box<[(Option<TypeId>, TypeId)]>);

impl SchemaReach {
    /// Evaluates `p` over the DTD's type graph from the root type. A filter
    /// prunes a type only where the type graph refutes it: keeping a type is
    /// conservative, exactly what validation needs.
    pub fn of(dtd: &Dtd, p: &XPath) -> SchemaReach {
        let mut current = BTreeSet::from([(None, dtd.root())]);
        for step in &p.steps {
            let mut next = BTreeSet::new();
            match &step.kind {
                StepKind::SelfAxis => next = current,
                StepKind::Child(test) => {
                    for &(_, t) in &current {
                        let children = dtd.children_of(t).iter();
                        let tested = children.filter(|&&c| matches_test(dtd, c, test));
                        next.extend(tested.map(|&c| (Some(t), c)));
                    }
                }
                StepKind::DescendantOrSelf => {
                    for &(via, t) in &current {
                        next.insert((via, t));
                        // Every strict descendant, with the type it hangs under.
                        for u in dtd.reachable_from(t) {
                            next.extend(dtd.children_of(u).iter().map(|&c| (Some(u), c)));
                        }
                    }
                }
            }
            next.retain(|&(_, t)| step.filters.iter().all(|f| filter_may_hold(dtd, t, f)));
            current = next;
            if current.is_empty() {
                break;
            }
        }
        SchemaReach(current.into_iter().collect())
    }

    /// The verdict on inserting an `inserted` element at every reached
    /// type: the first target, in the walk's order, whose production is not
    /// `target → inserted*` refuses it; an empty walk is `Unreachable`.
    pub fn check_insert(&self, dtd: &Dtd, inserted: &str) -> Result<(), SchemaViolation> {
        let a = dtd
            .type_id(inserted)
            .ok_or_else(|| SchemaViolation::UnknownType(inserted.to_owned()))?;
        if self.0.is_empty() {
            return Err(SchemaViolation::Unreachable);
        }
        let refused = self.0.iter().find(|&&(_, t)| !dtd.allows_edit(t, a));
        refused.map_or(Ok(()), |&(_, target)| {
            Err(SchemaViolation::InvalidInsertTarget {
                target: dtd.name(target).to_owned(),
                inserted: inserted.to_owned(),
            })
        })
    }

    /// The verdict on deleting every reached type: the first pair whose
    /// parent's production is not `parent → target*` refuses it, as does a
    /// type reached as self (the root); an empty walk is `Unreachable`.
    pub fn check_delete(&self, dtd: &Dtd) -> Result<(), SchemaViolation> {
        if self.0.is_empty() {
            return Err(SchemaViolation::Unreachable);
        }
        for &(via, target) in self.0.iter() {
            let parent = match via {
                Some(parent) if dtd.allows_edit(parent, target) => continue,
                Some(parent) => dtd.name(parent),
                None => "<root>",
            };
            return Err(SchemaViolation::InvalidDeleteTarget {
                parent: parent.to_owned(),
                target: dtd.name(target).to_owned(),
            });
        }
        Ok(())
    }
}

fn matches_test(dtd: &Dtd, t: TypeId, test: &NodeTest) -> bool {
    match test {
        NodeTest::Wildcard => true,
        NodeTest::Label(l) => dtd.name(t) == l,
    }
}

/// Conservative schema-level filter check: returns `false` only when the
/// filter *provably* fails for every element of type `t`.
fn filter_may_hold(dtd: &Dtd, t: TypeId, f: &Filter) -> bool {
    match f {
        Filter::LabelIs(l) => dtd.name(t) == l,
        Filter::Path(p) | Filter::PathEq(p, _) => {
            // The filter path must be navigable from `t` in the type graph.
            let mut current = BTreeSet::from([t]);
            for step in &p.steps {
                let mut next = BTreeSet::new();
                match &step.kind {
                    StepKind::SelfAxis => next = current,
                    StepKind::Child(test) => {
                        for &u in &current {
                            let children = dtd.children_of(u).iter().copied();
                            next.extend(children.filter(|&c| matches_test(dtd, c, test)));
                        }
                    }
                    StepKind::DescendantOrSelf => {
                        for &u in &current {
                            next.extend(dtd.reachable_from(u));
                        }
                    }
                }
                current = next;
                if current.is_empty() {
                    return false;
                }
            }
            true
        }
        Filter::And(a, b) => filter_may_hold(dtd, t, a) && filter_may_hold(dtd, t, b),
        // `or`/`not` cannot be refuted conservatively without full analysis.
        Filter::Or(a, b) => filter_may_hold(dtd, t, a) || filter_may_hold(dtd, t, b),
        Filter::Not(_) => true,
    }
}

/// Validates an insertion `insert (A, t) into p` at the schema level: the
/// walk, then the verdict.
pub fn validate_insert(dtd: &Dtd, p: &XPath, inserted: &str) -> Result<(), SchemaViolation> {
    SchemaReach::of(dtd, p).check_insert(dtd, inserted)
}

/// Validates a deletion `delete p` at the schema level: the walk, then the
/// verdict.
pub fn validate_delete(dtd: &Dtd, p: &XPath) -> Result<(), SchemaViolation> {
    SchemaReach::of(dtd, p).check_delete(dtd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::registrar_dtd;
    use crate::xpath::parse_xpath;

    fn schema_eval(dtd: &Dtd, p: &XPath) -> Vec<(Option<TypeId>, TypeId)> {
        SchemaReach::of(dtd, p).0.into_vec()
    }

    #[test]
    fn schema_eval_tracks_types() {
        let d = registrar_dtd();
        let p = parse_xpath("course/prereq").unwrap();
        let reached = schema_eval(&d, &p);
        assert_eq!(reached.len(), 1);
        let (via, t) = reached.into_iter().next().unwrap();
        assert_eq!(d.name(via.unwrap()), "course");
        assert_eq!(d.name(t), "prereq");
    }

    #[test]
    fn schema_eval_handles_recursion() {
        let d = registrar_dtd();
        let p = parse_xpath("//course").unwrap();
        let reached = schema_eval(&d, &p);
        // course reachable via db and via prereq.
        let vias: BTreeSet<_> = reached
            .iter()
            .map(|(v, _)| v.map(|x| d.name(x).to_owned()))
            .collect();
        assert!(vias.contains(&Some("db".to_owned())));
        assert!(vias.contains(&Some("prereq".to_owned())));
    }

    #[test]
    fn valid_insert_into_prereq() {
        let d = registrar_dtd();
        let p = parse_xpath("course[cno=CS650]//course[cno=CS320]/prereq").unwrap();
        assert!(validate_insert(&d, &p, "course").is_ok());
    }

    #[test]
    fn insert_under_sequence_rejected() {
        let d = registrar_dtd();
        let p = parse_xpath("course").unwrap();
        // course → cno, title, prereq, takenBy is a sequence: no inserts.
        assert!(matches!(
            validate_insert(&d, &p, "cno"),
            Err(SchemaViolation::InvalidInsertTarget { .. })
        ));
    }

    #[test]
    fn insert_wrong_child_type_rejected() {
        let d = registrar_dtd();
        let p = parse_xpath("course/takenBy").unwrap();
        assert!(validate_insert(&d, &p, "student").is_ok());
        assert!(matches!(
            validate_insert(&d, &p, "course"),
            Err(SchemaViolation::InvalidInsertTarget { .. })
        ));
    }

    #[test]
    fn insert_unknown_type_rejected() {
        let d = registrar_dtd();
        let p = parse_xpath("course/prereq").unwrap();
        assert!(matches!(
            validate_insert(&d, &p, "nonexistent"),
            Err(SchemaViolation::UnknownType(_))
        ));
    }

    #[test]
    fn unreachable_path_rejected() {
        let d = registrar_dtd();
        let p = parse_xpath("student/course").unwrap();
        assert!(matches!(
            validate_insert(&d, &p, "course"),
            Err(SchemaViolation::Unreachable)
        ));
    }

    #[test]
    fn valid_delete_of_starred_child() {
        let d = registrar_dtd();
        let p = parse_xpath("course[cno=CS650]/prereq/course[cno=CS320]").unwrap();
        assert!(validate_delete(&d, &p).is_ok());
        let p = parse_xpath("//course[cno=CS320]//student[ssn=S02]").unwrap();
        assert!(validate_delete(&d, &p).is_ok());
    }

    #[test]
    fn delete_of_sequence_child_rejected() {
        let d = registrar_dtd();
        let p = parse_xpath("course/cno").unwrap();
        assert!(matches!(
            validate_delete(&d, &p),
            Err(SchemaViolation::InvalidDeleteTarget { .. })
        ));
    }

    #[test]
    fn delete_root_rejected() {
        let d = registrar_dtd();
        let p = parse_xpath(".").unwrap();
        assert!(matches!(
            validate_delete(&d, &p),
            Err(SchemaViolation::InvalidDeleteTarget { .. })
        ));
    }

    #[test]
    fn deletion_via_descendant_checks_every_parent_type() {
        let d = registrar_dtd();
        // //cno reaches cno via course (sequence): invalid.
        let p = parse_xpath("//cno").unwrap();
        assert!(validate_delete(&d, &p).is_err());
        // //student is reached via takenBy (star): valid.
        let p = parse_xpath("//student").unwrap();
        assert!(validate_delete(&d, &p).is_ok());
    }

    #[test]
    fn label_filters_refine_schema_eval() {
        let d = registrar_dtd();
        let p = parse_xpath("course/*[label()=prereq]").unwrap();
        let reached = schema_eval(&d, &p);
        assert_eq!(reached.len(), 1);
        assert_eq!(d.name(reached.into_iter().next().unwrap().1), "prereq");
    }

    #[test]
    fn impossible_filter_path_prunes() {
        let d = registrar_dtd();
        // student has no course children: filter can never hold.
        let p = parse_xpath("//student[course]").unwrap();
        let reached = schema_eval(&d, &p);
        assert!(reached.is_empty());
    }

    #[test]
    fn delete_via_self_reached_descendant_root() {
        let d = registrar_dtd();
        // `//course` includes course reached via both db and prereq — both star. ok.
        let p = parse_xpath("//course").unwrap();
        assert!(validate_delete(&d, &p).is_ok());
    }
}
