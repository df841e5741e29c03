//! Property-based oracle tests.
//!
//! 1. **XPath oracle**: the DAG evaluator (§3.2) must agree with the naive
//!    tree evaluator on the expanded view, for randomly generated paths.
//! 2. **Update oracle**: randomly generated update sequences must keep
//!    `∆X(T) = σ(∆R(I))` for every accepted update.
//! 3. **Maintenance oracle**: `M` and `L` must match recomputation after
//!    every update (checked inside `consistency_check`).

use proptest::prelude::*;
use rxview::core::{
    Reachability, SideEffectPolicy, TopoOrder, ViewStore, XmlUpdate, XmlViewSystem,
};
use rxview::relstore::{tuple, Tuple, Value};
use rxview::workload::{registrar_atg, registrar_database};
use rxview::xmlkit::xpath::{Filter, NodeTest, Step, StepKind, XPath};
use rxview_reference::{eval_on_tree, eval_xpath_on_dag};

/// Random XPath over the registrar vocabulary.
fn arb_xpath() -> impl Strategy<Value = XPath> {
    let label = prop_oneof![
        Just("course".to_string()),
        Just("prereq".to_string()),
        Just("takenBy".to_string()),
        Just("student".to_string()),
        Just("cno".to_string()),
        Just("ssn".to_string()),
    ];
    let value = prop_oneof![
        Just("CS650".to_string()),
        Just("CS320".to_string()),
        Just("CS240".to_string()),
        Just("S01".to_string()),
        Just("S02".to_string()),
        Just("Bob".to_string()),
    ];
    let filter = (label.clone(), value, any::<u8>()).prop_map(|(l, v, k)| match k % 4 {
        0 => Filter::PathEq(XPath::from_steps(vec![Step::label(l)]), v),
        1 => Filter::Path(XPath::from_steps(vec![Step::label(l)])),
        2 => Filter::LabelIs(l),
        _ => Filter::not(Filter::PathEq(XPath::from_steps(vec![Step::label(l)]), v)),
    });
    let step = (label, proptest::option::of(filter), any::<u8>()).prop_map(|(l, f, k)| {
        let kind = match k % 5 {
            0 => StepKind::DescendantOrSelf,
            1 => StepKind::Child(NodeTest::Wildcard),
            _ => StepKind::Child(NodeTest::Label(l)),
        };
        let mut s = Step::new(kind);
        if let Some(f) = f {
            // Filters on `//` steps are attached after normalization anyway.
            s.filters.push(f);
        }
        s
    });
    proptest::collection::vec(step, 1..5).prop_map(XPath::from_steps)
}

fn fixture() -> (ViewStore, TopoOrder, Reachability) {
    let db = registrar_database();
    let atg = registrar_atg(&db).expect("valid ATG");
    let vs = ViewStore::publish(atg, &db).expect("publishes");
    let topo = TopoOrder::compute(vs.dag());
    let reach = Reachability::compute(vs.dag(), &topo);
    (vs, topo, reach)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dag_eval_matches_tree_oracle(p in arb_xpath()) {
        let (vs, topo, reach) = fixture();
        let tree = vs.dag().expand(vs.atg());
        let dtd = vs.atg().dtd();
        let dag_result = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        let tree_nodes = eval_on_tree(&tree, dtd, &p);
        // Compare as multisets of (type, subtree-serialization) collapsed to
        // sets: node identity in the DAG == (type, $A), and two tree nodes
        // with equal subtree content have equal (type, $A).
        let tree_ids: std::collections::BTreeSet<(String, String)> = tree_nodes
            .iter()
            .map(|&n| (dtd.name(tree.node(n).ty()).to_owned(), tree.text_value(n)))
            .collect();
        let mut cache = std::collections::HashMap::new();
        let dag_ids: std::collections::BTreeSet<(String, String)> = dag_result
            .selected
            .iter()
            .map(|&v| {
                (
                    dtd.name(vs.dag().genid().type_of(v)).to_owned(),
                    vs.text_value(v, &mut cache),
                )
            })
            .collect();
        prop_assert_eq!(dag_ids, tree_ids, "path: {}", p);
    }
}

/// A randomly chosen applicable update on the registrar system.
#[derive(Debug, Clone)]
enum Op {
    InsertPrereq { parent: usize, child: usize },
    DeletePrereq { parent: usize, child: usize },
    InsertStudent { ssn: usize, course: usize },
    DeleteStudentEverywhere { ssn: usize },
}

fn courses() -> Vec<(Tuple, &'static str)> {
    vec![
        (tuple!["CS650", "Advanced DB"], "CS650"),
        (tuple!["CS320", "Algorithms"], "CS320"),
        (tuple!["CS240", "Data Structures"], "CS240"),
        (tuple!["MA100", "Calculus"], "MA100"),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4, 0usize..4).prop_map(|(parent, child)| Op::InsertPrereq { parent, child }),
        (0usize..4, 0usize..4).prop_map(|(parent, child)| Op::DeletePrereq { parent, child }),
        (0usize..6, 0usize..4).prop_map(|(ssn, course)| Op::InsertStudent { ssn, course }),
        (0usize..6).prop_map(|ssn| Op::DeleteStudentEverywhere { ssn }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The update oracle: arbitrary op sequences keep the system consistent,
    /// regardless of which ops are accepted or rejected.
    #[test]
    fn random_update_sequences_preserve_consistency(ops in proptest::collection::vec(arb_op(), 1..8)) {
        let db = registrar_database();
        let atg = registrar_atg(&db).expect("valid ATG");
        let mut sys = XmlViewSystem::new(atg, db).expect("publishes");
        let cs = courses();
        for op in &ops {
            let update = match op {
                Op::InsertPrereq { parent, child } => {
                    if parent == child { continue; }
                    XmlUpdate::insert(
                        "course",
                        cs[*child].0.clone(),
                        &format!("//course[cno={}]/prereq", cs[*parent].1),
                    ).expect("parses")
                }
                Op::DeletePrereq { parent, child } => XmlUpdate::delete(&format!(
                    "//course[cno={}]/prereq/course[cno={}]",
                    cs[*parent].1, cs[*child].1
                )).expect("parses"),
                Op::InsertStudent { ssn, course } => XmlUpdate::insert(
                    "student",
                    Tuple::from_values([
                        Value::from(format!("P{ssn:02}")),
                        Value::from(format!("Person {ssn}")),
                    ]),
                    &format!("//course[cno={}]/takenBy", cs[*course].1),
                ).expect("parses"),
                Op::DeleteStudentEverywhere { ssn } => {
                    XmlUpdate::delete(&format!("//student[ssn=P{ssn:02}]")).expect("parses")
                }
            };
            // Acceptance is data-dependent; rejection must be clean. A
            // cyclic insertion (e.g. CS240 a prereq of its own descendant)
            // may legally be *accepted* by the relational side; the system
            // must then still satisfy the republication oracle (the DAG
            // gains a cycle only if σ(I') is cyclic, which publish()
            // rejects — so such updates must be rejected too).
            let _ = sys.apply(&update, SideEffectPolicy::Proceed);
            if let Err(e) = sys.consistency_check() {
                return Err(TestCaseError::fail(format!("after {update}: {e}")));
            }
        }
    }
}
