//! Schema-level validation of XML view updates (§2.4).
//!
//! Before any data is touched, an update `∆X` defined by an XPath `p` is
//! validated against the DTD `D`: `p` is "evaluated" on the type graph of
//! `D` to find the element types it can reach, and the update is rejected
//! unless every reachable target admits the edit — an insertion (resp.
//! deletion) of a `B` child under an `A` element is valid only if the
//! production of `A` is `A → B*`. The check runs in `O(|p| |D|²)` time.

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

/// Evaluates `p` over the DTD's type graph starting from the root type.
///
/// Returns the set of `(via_parent, type)` pairs reachable at the end of `p`:
/// `via_parent` is `None` when the type is reached "as self" (e.g. the root,
/// or via the self axis at the start), otherwise the type of the parent
/// through which the final step arrives. Filters are ignored (they cannot be
/// decided at the schema level and only ever *shrink* the reached set, so
/// ignoring them is conservative — exactly what validation needs).
pub(crate) fn schema_eval(dtd: &Dtd, p: &XPath) -> BTreeSet<(Option<TypeId>, TypeId)> {
    let mut current: BTreeSet<(Option<TypeId>, TypeId)> = BTreeSet::new();
    current.insert((None, dtd.root()));
    for step in &p.steps {
        // Label filters *can* be applied at schema level; use them to refine.
        let mut next: BTreeSet<(Option<TypeId>, TypeId)> = BTreeSet::new();
        match &step.kind {
            StepKind::SelfAxis => {
                next = current.clone();
            }
            StepKind::Child(test) => {
                for &(_, t) in &current {
                    for c in dtd.children_of(t) {
                        let ok = match test {
                            NodeTest::Wildcard => true,
                            NodeTest::Label(l) => dtd.name(c) == l,
                        };
                        if ok {
                            next.insert((Some(t), c));
                        }
                    }
                }
            }
            StepKind::DescendantOrSelf => {
                for &(via, t) in &current {
                    next.insert((via, t));
                    // Every strict descendant, with the type it hangs under.
                    for u in dtd.reachable_from(t) {
                        for c in dtd.children_of(u) {
                            next.insert((Some(u), c));
                        }
                    }
                }
            }
        }
        // Apply decidable (label) filters conservatively.
        next.retain(|&(_, t)| step.filters.iter().all(|f| filter_may_hold(dtd, t, f)));
        current = next;
        if current.is_empty() {
            break;
        }
    }
    current
}

/// Conservative schema-level filter check: returns `false` only when the
/// filter *provably* fails for every element of type `t`.
fn filter_may_hold(dtd: &Dtd, t: TypeId, f: &Filter) -> bool {
    match f {
        Filter::LabelIs(l) => dtd.name(t) == l,
        Filter::Path(p) | Filter::PathEq(p, _) => {
            // The filter path must be navigable from `t` in the type graph.
            let mut current: BTreeSet<TypeId> = BTreeSet::new();
            current.insert(t);
            for step in &p.steps {
                let mut next = BTreeSet::new();
                match &step.kind {
                    StepKind::SelfAxis => next = current.clone(),
                    StepKind::Child(test) => {
                        for &u in &current {
                            for c in dtd.children_of(u) {
                                let ok = match test {
                                    NodeTest::Wildcard => true,
                                    NodeTest::Label(l) => dtd.name(c) == l,
                                };
                                if ok {
                                    next.insert(c);
                                }
                            }
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

/// Validates an insertion `insert (A, t) into p` at the schema level.
pub fn validate_insert(dtd: &Dtd, p: &XPath, inserted: &str) -> Result<(), SchemaViolation> {
    let a = dtd
        .type_id(inserted)
        .ok_or_else(|| SchemaViolation::UnknownType(inserted.to_owned()))?;
    let reached = schema_eval(dtd, p);
    if reached.is_empty() {
        return Err(SchemaViolation::Unreachable);
    }
    for (_, target) in reached {
        if !dtd.allows_edit(target, a) {
            return Err(SchemaViolation::InvalidInsertTarget {
                target: dtd.name(target).to_owned(),
                inserted: inserted.to_owned(),
            });
        }
    }
    Ok(())
}

/// Validates a deletion `delete p` at the schema level.
pub fn validate_delete(dtd: &Dtd, p: &XPath) -> Result<(), SchemaViolation> {
    let reached = schema_eval(dtd, p);
    if reached.is_empty() {
        return Err(SchemaViolation::Unreachable);
    }
    for (via, target) in reached {
        match via {
            Some(parent) if dtd.allows_edit(parent, target) => {}
            Some(parent) => {
                return Err(SchemaViolation::InvalidDeleteTarget {
                    parent: dtd.name(parent).to_owned(),
                    target: dtd.name(target).to_owned(),
                })
            }
            None => {
                // Deleting the root (or a self-reached node) is never valid.
                return Err(SchemaViolation::InvalidDeleteTarget {
                    parent: "<root>".to_owned(),
                    target: dtd.name(target).to_owned(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::registrar_dtd;
    use crate::xpath::parse_xpath;

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
