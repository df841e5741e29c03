//! XPath on the (uncompressed) XML tree, the semantics of §2.1.
//!
//! This is the semantics oracle: the DAG evaluators (§3.2, [`crate::eval`]
//! and the compiled plans) must select exactly the nodes this evaluator
//! selects on the expanded tree. It is also the baseline of the compression
//! ablation (`paper_tables ablation-dag`). Straightforward recursive set
//! evaluation — correctness over speed.

use rxview_xmlkit::xpath::{Filter, NodeTest, Step, StepKind, XPath};
use rxview_xmlkit::Dtd;
use rxview_xmlkit::{NodeId, XmlTree};
use std::collections::HashSet;

/// Evaluates `p` from the root of `tree`, returning selected nodes in
/// document order.
pub fn eval_on_tree(tree: &XmlTree, dtd: &Dtd, p: &XPath) -> Vec<NodeId> {
    eval_from(tree, dtd, tree.root(), p)
}

/// Evaluates `p` from an arbitrary context node (used by filters).
///
/// Dedup between steps is hash-keyed by node id (arena ids are dense and
/// cheap to hash); the result is sorted back into document order — arena
/// ids are allocated in document order — only when materialized.
pub fn eval_from(tree: &XmlTree, dtd: &Dtd, context: NodeId, p: &XPath) -> Vec<NodeId> {
    let mut current: HashSet<NodeId> = HashSet::new();
    current.insert(context);
    for step in &p.steps {
        current = eval_step(tree, dtd, &current, step);
        if current.is_empty() {
            break;
        }
    }
    let mut out: Vec<NodeId> = current.into_iter().collect();
    out.sort_unstable();
    out
}

fn eval_step(tree: &XmlTree, dtd: &Dtd, current: &HashSet<NodeId>, step: &Step) -> HashSet<NodeId> {
    let mut next: HashSet<NodeId> = HashSet::new();
    match &step.kind {
        StepKind::SelfAxis => {
            next.extend(current.iter().copied());
        }
        StepKind::Child(test) => {
            for &n in current {
                for &c in tree.node(n).children() {
                    if node_test(tree, dtd, c, test) {
                        next.insert(c);
                    }
                }
            }
        }
        StepKind::DescendantOrSelf => {
            for &n in current {
                next.insert(n);
                next.extend(tree.descendants(n));
            }
        }
    }
    next.retain(|&n| step.filters.iter().all(|f| eval_filter(tree, dtd, n, f)));
    next
}

fn node_test(tree: &XmlTree, dtd: &Dtd, n: NodeId, test: &NodeTest) -> bool {
    match test {
        NodeTest::Wildcard => true,
        NodeTest::Label(l) => dtd.name(tree.node(n).ty()) == l,
    }
}

/// Evaluates a filter at a context node.
pub fn eval_filter(tree: &XmlTree, dtd: &Dtd, context: NodeId, f: &Filter) -> bool {
    match f {
        Filter::Path(p) => !eval_from(tree, dtd, context, p).is_empty(),
        Filter::PathEq(p, s) => {
            // Value comparison is defined on text (pcdata) nodes — the
            // paper's usage (`cno = CS650`); interior elements never match.
            eval_from(tree, dtd, context, p)
                .iter()
                .any(|&n| tree.node(n).text() == Some(s.as_str()))
        }
        Filter::LabelIs(l) => dtd.name(tree.node(context).ty()) == l,
        Filter::And(a, b) => {
            eval_filter(tree, dtd, context, a) && eval_filter(tree, dtd, context, b)
        }
        Filter::Or(a, b) => {
            eval_filter(tree, dtd, context, a) || eval_filter(tree, dtd, context, b)
        }
        Filter::Not(a) => !eval_filter(tree, dtd, context, a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_xmlkit::{parse_xpath, registrar_dtd};

    /// Builds the running-example tree of Fig.1 (uncompressed):
    /// CS650 with prereq CS320; CS320 with prereq CS240; CS320 and CS240
    /// also appear as top-level courses. Students: S01 takes CS650,
    /// S02 takes CS320 and CS240.
    fn fig1() -> (Dtd, XmlTree) {
        let d = registrar_dtd();
        let mut t = XmlTree::new(d.root());

        // Helper closures cannot borrow t mutably twice; build iteratively.
        fn add_course(
            t: &mut XmlTree,
            d: &Dtd,
            parent: NodeId,
            cno: &str,
            title: &str,
            prereqs: &[(&str, &str)],
            students: &[(&str, &str)],
        ) -> NodeId {
            let ty = |n: &str| d.type_id(n).unwrap();
            let c = t.add_child(parent, ty("course"));
            t.add_text_child(c, ty("cno"), cno);
            t.add_text_child(c, ty("title"), title);
            let pr = t.add_child(c, ty("prereq"));
            for (pc, pt) in prereqs {
                // One level only here; nested built by callers.
                let sub = t.add_child(pr, ty("course"));
                t.add_text_child(sub, ty("cno"), *pc);
                t.add_text_child(sub, ty("title"), *pt);
                t.add_child(sub, ty("prereq"));
                t.add_child(sub, ty("takenBy"));
            }
            let tb = t.add_child(c, ty("takenBy"));
            for (ssn, name) in students {
                let s = t.add_child(tb, ty("student"));
                t.add_text_child(s, ty("ssn"), *ssn);
                t.add_text_child(s, ty("name"), *name);
            }
            c
        }

        let root = t.root();
        // CS650 → prereq CS320 (which itself has prereq CS240, built below).
        let cs650 = add_course(
            &mut t,
            &d,
            root,
            "CS650",
            "Advanced DB",
            &[],
            &[("S01", "Alice")],
        );
        let pr650 = t.node(cs650).children()[2];
        // CS320 under CS650's prereq, with its own prereq CS240.
        let cs320_inner = add_course(
            &mut t,
            &d,
            pr650,
            "CS320",
            "Algorithms",
            &[("CS240", "Data Structures")],
            &[("S02", "Bob")],
        );
        let _ = cs320_inner;
        // Top-level CS320 and CS240 (shared subtrees in the DAG view).
        add_course(
            &mut t,
            &d,
            root,
            "CS320",
            "Algorithms",
            &[("CS240", "Data Structures")],
            &[("S02", "Bob")],
        );
        add_course(
            &mut t,
            &d,
            root,
            "CS240",
            "Data Structures",
            &[],
            &[("S02", "Bob")],
        );
        (d, t)
    }

    fn labels(t: &XmlTree, d: &Dtd, ns: &[NodeId]) -> Vec<String> {
        ns.iter()
            .map(|&n| d.name(t.node(n).ty()).to_owned())
            .collect()
    }

    #[test]
    fn child_steps_select_courses() {
        let (d, t) = fig1();
        let p = parse_xpath("course").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        assert_eq!(out.len(), 3); // three top-level courses
        assert!(labels(&t, &d, &out).iter().all(|l| l == "course"));
    }

    #[test]
    fn value_filter_selects_cs650() {
        let (d, t) = fig1();
        let p = parse_xpath("course[cno=CS650]").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        assert_eq!(out.len(), 1);
        assert!(t.text_value(out[0]).contains("Advanced DB"));
    }

    #[test]
    fn descendant_or_self_finds_nested_courses() {
        let (d, t) = fig1();
        let p = parse_xpath("//course[cno=CS320]").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        assert_eq!(out.len(), 2); // nested under CS650 + top-level
    }

    #[test]
    fn paper_p0_selects_prereq_under_cs650_only() {
        let (d, t) = fig1();
        let p = parse_xpath("course[cno=CS650]//course[cno=CS320]/prereq").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        assert_eq!(out.len(), 1);
        assert_eq!(labels(&t, &d, &out), vec!["prereq"]);
    }

    #[test]
    fn deletion_path_of_example4() {
        let (d, t) = fig1();
        let p = parse_xpath("//course[cno=CS320]//student[ssn=S02]").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        assert_eq!(out.len(), 2); // S02 under each CS320 occurrence
        assert!(labels(&t, &d, &out).iter().all(|l| l == "student"));
    }

    #[test]
    fn wildcard_step() {
        let (d, t) = fig1();
        let p = parse_xpath("course/*").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        // each of 3 courses has cno, title, prereq, takenBy
        assert_eq!(out.len(), 12);
    }

    #[test]
    fn existential_filter() {
        let (d, t) = fig1();
        // Courses that have at least one prerequisite course.
        let p = parse_xpath("course[prereq/course]").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        assert_eq!(out.len(), 2); // CS650 and CS320 at top level
    }

    #[test]
    fn negation_filter() {
        let (d, t) = fig1();
        let p = parse_xpath("course[not(prereq/course)]").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        assert_eq!(out.len(), 1); // CS240
        let cno = parse_xpath("cno").unwrap();
        let cnos = eval_from(&t, &d, out[0], &cno);
        assert_eq!(t.text_value(cnos[0]), "CS240");
    }

    #[test]
    fn label_is_filter() {
        let (d, t) = fig1();
        let p = parse_xpath("course/*[label()=prereq]").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        assert_eq!(out.len(), 3);
        assert!(labels(&t, &d, &out).iter().all(|l| l == "prereq"));
    }

    #[test]
    fn conjunction_and_disjunction() {
        let (d, t) = fig1();
        let p = parse_xpath("course[cno=CS320 or cno=CS240]").unwrap();
        assert_eq!(eval_on_tree(&t, &d, &p).len(), 2);
        let p = parse_xpath("course[cno=CS320 and title=Algorithms]").unwrap();
        assert_eq!(eval_on_tree(&t, &d, &p).len(), 1);
        let p = parse_xpath("course[cno=CS320 and title=Nope]").unwrap();
        assert!(eval_on_tree(&t, &d, &p).is_empty());
    }

    #[test]
    fn recursive_filter_path() {
        let (d, t) = fig1();
        // Courses whose subtree mentions CS240 anywhere.
        let p = parse_xpath("course[.//cno=CS240]").unwrap();
        let out = eval_on_tree(&t, &d, &p);
        assert_eq!(out.len(), 3); // CS650 (via CS320), CS320, CS240 itself
    }

    #[test]
    fn empty_result_short_circuits() {
        let (d, t) = fig1();
        let p = parse_xpath("student/course").unwrap();
        assert!(eval_on_tree(&t, &d, &p).is_empty());
    }
}
