//! Two-pass XPath evaluation on DAG-compressed views (§3.2), transcribed
//! verbatim: the specification `rxview_core::plan::eval_plan` (the compiled
//! evaluator every path runs through) is held equal to.
//!
//! **Bottom-up pass** — dynamic programming over the topological order `L`
//! and the (topologically sorted) list of sub-filters `Q`: for every
//! sub-filter `q` and node `v`, compute `val(q, v)` ("`q` holds at `v`") and
//! — implicitly, through the suffix predicates of `//` — `desc(q, v)`.
//! Because `L` lists descendants before ancestors, every value a recurrence
//! needs has already been computed.
//!
//! **Top-down pass** — starting from the root, compute the nodes reached
//! after every normalized step; then prune backwards from the final set so
//! that only nodes and edges on *complete* matches remain. The result is
//! `r[[p]]`, the matched parent-edges `Ep(r)`, and the data needed to decide
//! XML side effects: a side effect exists iff a matched node has an
//! *unmatched* incoming DAG edge — i.e. the affected subtree also occurs in
//! the tree at positions `p` does not select (§2.1).
//!
//! Value filters (`p = "s"`) compare against the text of `pcdata` nodes
//! (the paper's usage, e.g. `cno = CS650`); on interior element nodes the
//! comparison is false — comparing against whole-subtree concatenations
//! would cost `O(n · |doc|)` on the DAG and has no counterpart in the
//! paper's workloads.
//!
//! The whole evaluation visits each DAG edge a constant number of times per
//! sub-expression: `O(|p| |V|)`, the bound of §3.2.

use rxview_atg::NodeId;
use rxview_core::{DagEval, Reachability, TopoOrder, ViewStore};
use rxview_xmlkit::xpath::{normalize, NormStep};
use rxview_xmlkit::xpath::{Filter, XPath};
use std::collections::{HashMap, HashSet};

/// Compiled predicate slots for the bottom-up pass.
enum Pred {
    /// `label() = name` (resolved to a type id; unresolvable names are
    /// constant-false).
    TypeIs(Option<rxview_xmlkit::TypeId>),
    /// `text(v) == s`.
    TextEq(String),
    /// Constant true (terminal of existential path filters).
    True,
    /// `∃ child c: label(c) = name ∧ P_next(c)`.
    SuffixLabel {
        ty: Option<rxview_xmlkit::TypeId>,
        next: usize,
    },
    /// `∃ child c: P_next(c)`.
    SuffixWildcard {
        next: usize,
    },
    /// `P_filter(v) ∧ P_next(v)`.
    SuffixFilter {
        filter: usize,
        next: usize,
    },
    /// `P_next(v) ∨ ∃ child c: P_self(c)` — the paper's `desc` variable.
    SuffixDesc {
        next: usize,
    },
    /// Boolean combinations.
    And(usize, usize),
    Or(usize, usize),
    Not(usize),
}

struct Compiler<'a> {
    vs: &'a ViewStore,
    preds: Vec<Pred>,
}

impl<'a> Compiler<'a> {
    fn push(&mut self, p: Pred) -> usize {
        self.preds.push(p);
        self.preds.len() - 1
    }

    /// Compiles a path with a terminal predicate into a suffix chain,
    /// returning the predicate index for the full path from a context node.
    fn compile_path(&mut self, path: &XPath, terminal: usize) -> usize {
        let norm = normalize(path);
        let mut next = terminal;
        for step in norm.steps.iter().rev() {
            next = match step {
                NormStep::Label(name) => {
                    let ty = self.vs.atg().dtd().type_id(name);
                    self.push(Pred::SuffixLabel { ty, next })
                }
                NormStep::Wildcard => self.push(Pred::SuffixWildcard { next }),
                NormStep::DescendantOrSelf => self.push(Pred::SuffixDesc { next }),
                NormStep::FilterStep(f) => {
                    let filter = self.compile_filter(f);
                    self.push(Pred::SuffixFilter { filter, next })
                }
            };
        }
        next
    }

    fn compile_filter(&mut self, f: &Filter) -> usize {
        match f {
            Filter::LabelIs(name) => {
                let ty = self.vs.atg().dtd().type_id(name);
                self.push(Pred::TypeIs(ty))
            }
            Filter::Path(p) => {
                let t = self.push(Pred::True);
                self.compile_path(p, t)
            }
            Filter::PathEq(p, s) => {
                let t = self.push(Pred::TextEq(s.clone()));
                self.compile_path(p, t)
            }
            Filter::And(a, b) => {
                let (ia, ib) = (self.compile_filter(a), self.compile_filter(b));
                self.push(Pred::And(ia, ib))
            }
            Filter::Or(a, b) => {
                let (ia, ib) = (self.compile_filter(a), self.compile_filter(b));
                self.push(Pred::Or(ia, ib))
            }
            Filter::Not(a) => {
                let ia = self.compile_filter(a);
                self.push(Pred::Not(ia))
            }
        }
    }
}

/// Per-step record from the forward pass, for backward pruning.
///
/// Membership-heavy working sets are hash sets keyed by node id — the
/// backward pass tests membership once per candidate edge, and ordered
/// iteration is only needed when results are materialized (sorted then).
enum StepRecord {
    Filter {
        after: HashSet<NodeId>,
    },
    Child {
        edges: Vec<(NodeId, NodeId)>,
    },
    Desc {
        sources: HashSet<NodeId>,
        closure: HashSet<NodeId>,
    },
}

/// `desc(u)`: `M` stores each node's ancestors only, so `u`'s descendants
/// are a search down the DAG's child lists.
fn descendants(vs: &ViewStore, u: NodeId) -> HashSet<NodeId> {
    let mut seen = HashSet::new();
    let mut stack = vec![u];
    while let Some(v) = stack.pop() {
        for &c in vs.dag().children(v) {
            if seen.insert(c) {
                stack.push(c);
            }
        }
    }
    seen
}

/// Evaluates the update path `p` on the view.
pub fn eval_xpath_on_dag(
    vs: &ViewStore,
    topo: &TopoOrder,
    reach: &Reachability,
    p: &XPath,
) -> DagEval {
    let norm = normalize(p);
    let dtd = vs.atg().dtd();

    // ---- Bottom-up pass: compile filters, then fill bitsets over L. ----
    let mut compiler = Compiler {
        vs,
        preds: Vec::new(),
    };
    // Compile the filters of the top-level normalized steps (their suffix
    // machinery is shared with the path compiler).
    let mut step_filters: Vec<Option<usize>> = Vec::with_capacity(norm.steps.len());
    for step in &norm.steps {
        match step {
            NormStep::FilterStep(f) => step_filters.push(Some(compiler.compile_filter(f))),
            _ => step_filters.push(None),
        }
    }
    let preds = compiler.preds;
    let n = topo.len();
    // Each node's index in `L`, the column of the value matrix.
    let index: HashMap<NodeId, usize> = topo
        .order()
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    let position = |v: NodeId| index.get(&v).copied();
    let mut val: Vec<Vec<bool>> = preds.iter().map(|_| vec![false; n]).collect();
    let mut text_cache: HashMap<NodeId, String> = HashMap::new();
    for (vi, &v) in topo.order().iter().enumerate() {
        let vty = vs.dag().genid().type_of(v);
        for (pi, pred) in preds.iter().enumerate() {
            let value = match pred {
                Pred::True => true,
                Pred::TypeIs(ty) => Some(vty) == *ty,
                Pred::TextEq(s) => {
                    vs.atg().dtd().is_pcdata(vty) && vs.text_value(v, &mut text_cache) == *s
                }
                Pred::And(a, b) => val[*a][vi] && val[*b][vi],
                Pred::Or(a, b) => val[*a][vi] || val[*b][vi],
                Pred::Not(a) => !val[*a][vi],
                Pred::SuffixFilter { filter, next } => val[*filter][vi] && val[*next][vi],
                Pred::SuffixLabel { ty, next } => match ty {
                    None => false,
                    Some(ty) => vs.dag().children(v).iter().any(|&c| {
                        vs.dag().genid().type_of(c) == *ty
                            && position(c).is_some_and(|ci| val[*next][ci])
                    }),
                },
                Pred::SuffixWildcard { next } => vs
                    .dag()
                    .children(v)
                    .iter()
                    .any(|&c| position(c).is_some_and(|ci| val[*next][ci])),
                Pred::SuffixDesc { next } => {
                    val[*next][vi]
                        || vs
                            .dag()
                            .children(v)
                            .iter()
                            .any(|&c| position(c).is_some_and(|ci| val[pi][ci]))
                }
            };
            val[pi][vi] = value;
        }
    }
    let holds = |pi: usize, v: NodeId| position(v).is_some_and(|i| val[pi][i]);

    // ---- Top-down forward pass. ----
    let root = vs.dag().root();
    let mut cur: HashSet<NodeId> = HashSet::new();
    cur.insert(root);
    let mut records: Vec<StepRecord> = Vec::with_capacity(norm.steps.len());
    for (si, step) in norm.steps.iter().enumerate() {
        match step {
            NormStep::FilterStep(_) => {
                let fidx = step_filters[si].expect("filter compiled");
                let after: HashSet<NodeId> =
                    cur.iter().copied().filter(|&v| holds(fidx, v)).collect();
                records.push(StepRecord::Filter {
                    after: after.clone(),
                });
                cur = after;
            }
            NormStep::Label(name) => {
                let ty = dtd.type_id(name);
                let mut edges = Vec::new();
                let mut after = HashSet::new();
                for &u in &cur {
                    for &c in vs.dag().children(u) {
                        if ty.is_some_and(|t| vs.dag().genid().type_of(c) == t) {
                            edges.push((u, c));
                            after.insert(c);
                        }
                    }
                }
                records.push(StepRecord::Child { edges });
                cur = after;
            }
            NormStep::Wildcard => {
                let mut edges = Vec::new();
                let mut after = HashSet::new();
                for &u in &cur {
                    for &c in vs.dag().children(u) {
                        edges.push((u, c));
                        after.insert(c);
                    }
                }
                records.push(StepRecord::Child { edges });
                cur = after;
            }
            NormStep::DescendantOrSelf => {
                let sources = cur.clone();
                let mut closure: HashSet<NodeId> = cur.clone();
                for &u in &cur {
                    // Restricted to the evaluation scope: under a full `L`
                    // this passes every live descendant; under a cone-union
                    // projection it keeps the working set (and every later
                    // step) proportional to the scope, which is what makes
                    // scoped `//`-headed evaluation cheap. Exactness is the
                    // caller's contract: every possible match (and, for
                    // `//` heads, its ancestors) lies inside the scope.
                    closure.extend(
                        descendants(vs, u)
                            .into_iter()
                            .filter(|d| position(*d).is_some()),
                    );
                }
                records.push(StepRecord::Desc {
                    sources,
                    closure: closure.clone(),
                });
                cur = closure;
            }
        }
        if cur.is_empty() {
            break;
        }
    }

    if cur.is_empty() {
        return DagEval::default();
    }
    // Deterministic output: materialized node lists are sorted by id.
    let mut selected: Vec<NodeId> = cur.iter().copied().collect();
    selected.sort_unstable();

    // ---- Backward pruning: keep only complete matches. ----
    let mut useful: HashSet<NodeId> = cur.clone();
    let mut matched: HashSet<NodeId> = useful.clone();
    let mut matched_edge_set: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut final_edges: HashSet<(NodeId, NodeId)> = HashSet::new();
    for (ri, rec) in records.iter().enumerate().rev() {
        match rec {
            StepRecord::Filter { after } => {
                useful.retain(|v| after.contains(v));
            }
            StepRecord::Child { edges } => {
                let mut prev = HashSet::new();
                for &(u, c) in edges {
                    if useful.contains(&c) {
                        matched_edge_set.insert((u, c));
                        if ri + 1 == records.len()
                            || records[ri + 1..]
                                .iter()
                                .all(|r| matches!(r, StepRecord::Filter { .. }))
                        {
                            final_edges.insert((u, c));
                        }
                        prev.insert(u);
                    }
                }
                useful = prev;
            }
            StepRecord::Desc { sources, closure } => {
                // Nodes of the matched segment: desc-or-self of a useful
                // source and anc-or-self of a useful target, within closure.
                let mut target_anc: HashSet<NodeId> = useful.clone();
                for &t in &useful {
                    target_anc.extend(reach.ancestors(t));
                }
                let prev: HashSet<NodeId> = sources
                    .iter()
                    .copied()
                    .filter(|s| target_anc.contains(s))
                    .collect();
                // Desc-or-self of the surviving sources. When the root is
                // one of them (every leading-`//` path), the set is the
                // whole view — skip materializing it instead of copying
                // `O(|V|)` node ids per evaluation.
                let universal = prev.contains(&root);
                let mut source_desc: HashSet<NodeId> = HashSet::new();
                if !universal {
                    source_desc.extend(prev.iter().copied());
                    for &s in &prev {
                        source_desc.extend(descendants(vs, s));
                    }
                }
                let mid: HashSet<NodeId> = closure
                    .iter()
                    .copied()
                    .filter(|x| target_anc.contains(x) && (universal || source_desc.contains(x)))
                    .collect();
                for &u in &mid {
                    for &c in vs.dag().children(u) {
                        if mid.contains(&c) {
                            matched_edge_set.insert((u, c));
                            if useful.contains(&c)
                                && (ri + 1 == records.len()
                                    || records[ri + 1..]
                                        .iter()
                                        .all(|r| matches!(r, StepRecord::Filter { .. })))
                            {
                                final_edges.insert((u, c));
                            }
                        }
                    }
                }
                matched.extend(mid.iter().copied());
                useful = prev;
            }
        }
        matched.extend(useful.iter().copied());
    }

    let mut edge_parents: Vec<(NodeId, NodeId)> = final_edges
        .into_iter()
        .filter(|(_, v)| cur.contains(v))
        .collect();
    edge_parents.sort_unstable();

    DagEval {
        selected,
        edge_parents,
        matched_nodes: matched.into_iter().collect(),
        matched_edges: matched_edge_set.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::eval_on_tree;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_core::{eval_plan, resolve_anchors, scope_of_anchors, PlanCache};
    use rxview_relstore::{tuple, Database};
    use rxview_xmlkit::parse_xpath;
    use std::collections::BTreeSet;

    const PATHS: &[&str] = &[
        "course",
        "course[cno=CS320]",
        "//course",
        "//student",
        "//course[cno=CS320]//student[ssn=S02]",
        "course[cno=CS650]//course[cno=CS320]/prereq",
        "course/*",
        "course[prereq/course]",
        "course[not(prereq/course)]",
        "//course[cno=CS320 or cno=CS240]",
        "//takenBy/student[name=Bob]",
        "course[.//cno=CS240]",
        "*[label()=course]/prereq",
        "//prereq/course[takenBy/student]",
        "course[cno=CS650]/prereq/course[cno=CS320]",
        "nonexistent",
        "student/course",
    ];

    fn publish(db: &Database) -> (ViewStore, TopoOrder, Reachability) {
        let vs = ViewStore::publish(registrar_atg(db).unwrap(), db).unwrap();
        let topo = TopoOrder::compute(vs.dag());
        let reach = Reachability::compute(vs.dag(), &topo);
        (vs, topo, reach)
    }

    fn node(vs: &ViewStore, ty: &str, attr: rxview_relstore::Tuple) -> NodeId {
        let t = vs.atg().dtd().type_id(ty).unwrap();
        vs.dag().genid().lookup(t, &attr).unwrap()
    }

    #[test]
    fn simple_child_steps() {
        let (vs, topo, reach) = publish(&registrar_database());
        let p = parse_xpath("course").unwrap();
        let r = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        assert_eq!(r.selected.len(), 3);
        assert_eq!(r.edge_parents.len(), 3); // (db, course) ×3
    }

    #[test]
    fn value_filter_selects_unique_course() {
        let (vs, topo, reach) = publish(&registrar_database());
        let p = parse_xpath("course[cno=CS650]").unwrap();
        let r = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        assert_eq!(
            r.selected,
            vec![node(&vs, "course", tuple!["CS650", "Advanced DB"])]
        );
        assert!(r.side_effects(&vs, false).is_empty());
    }

    #[test]
    fn paper_p0_detects_insert_side_effect() {
        // P₀ = course[cno=CS650]//course[cno=CS320]/prereq: CS320 also
        // appears top-level, so inserting under the selected prereq has a
        // side effect (Example 1 / §2.1).
        let (vs, topo, reach) = publish(&registrar_database());
        let p = parse_xpath("course[cno=CS650]//course[cno=CS320]/prereq").unwrap();
        let r = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        let prereq320 = node(&vs, "prereq", tuple!["CS320"]);
        assert_eq!(r.selected, vec![prereq320]);
        let s = r.side_effects(&vs, false);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&vs.dag().root())); // the unmatched top-level CS320 occurrence
    }

    #[test]
    fn delete_under_unique_parent_has_no_side_effect() {
        // delete course[cno=CS650]/prereq/course[cno=CS320]: the affected
        // parent (CS650's prereq node) occurs once — no side effect, even
        // though CS320 itself also occurs top-level (§2.1).
        let (vs, topo, reach) = publish(&registrar_database());
        let p = parse_xpath("course[cno=CS650]/prereq/course[cno=CS320]").unwrap();
        let r = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        let cs320 = node(&vs, "course", tuple!["CS320", "Algorithms"]);
        let prereq650 = node(&vs, "prereq", tuple!["CS650"]);
        assert_eq!(r.selected, vec![cs320]);
        assert_eq!(r.edge_parents, vec![(prereq650, cs320)]);
        assert!(r.side_effects(&vs, true).is_empty());
        // For an *insert* at this CS320, the top-level occurrence is a side
        // effect.
        assert!(!r.side_effects(&vs, false).is_empty());
    }

    #[test]
    fn delete_with_shared_parent_has_side_effect() {
        // The takenBy node of CS320 occurs under both CS320 tree positions;
        // selecting it through CS650 only leaves the top-level occurrence
        // unmatched.
        let (vs, topo, reach) = publish(&registrar_database());
        let p =
            parse_xpath("course[cno=CS650]//course[cno=CS320]/takenBy/student[ssn=S02]").unwrap();
        let r = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        assert_eq!(r.selected.len(), 1);
        let s = r.side_effects(&vs, true);
        assert!(s.contains(&vs.dag().root()));
    }

    #[test]
    fn descendant_everywhere_has_no_side_effect() {
        // //course selects every occurrence — nothing is unmatched.
        let (vs, topo, reach) = publish(&registrar_database());
        let p = parse_xpath("//course").unwrap();
        let r = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        assert_eq!(r.selected.len(), 3);
        // Ep(r) contains every course edge: 3 from db, 2 from prereqs.
        assert_eq!(r.edge_parents.len(), 5);
        assert!(r.side_effects(&vs, true).is_empty());
        assert!(r.side_effects(&vs, false).is_empty());
    }

    #[test]
    fn example4_deletion_shape() {
        let (vs, topo, reach) = publish(&registrar_database());
        let p = parse_xpath("//course[cno=CS320]//student[ssn=S02]").unwrap();
        let r = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        let s02 = node(&vs, "student", tuple!["S02", "Bob"]);
        assert_eq!(r.selected, vec![s02]);
        // S02 is reached through takenBy of CS320 and (because CS240 is a
        // descendant of CS320) takenBy of CS240.
        let parents: BTreeSet<NodeId> = r.edge_parents.iter().map(|&(u, _)| u).collect();
        assert!(parents.contains(&node(&vs, "takenBy", tuple!["CS320"])));
        assert!(parents.contains(&node(&vs, "takenBy", tuple!["CS240"])));
    }

    #[test]
    fn matches_tree_oracle_on_many_paths() {
        let (vs, topo, reach) = publish(&registrar_database());
        let tree = vs.dag().expand(vs.atg());
        let dtd = vs.atg().dtd();
        for path in PATHS {
            let p = parse_xpath(path).unwrap();
            let dag_result = eval_xpath_on_dag(&vs, &topo, &reach, &p);
            // Compare the *set of (type, attr)* selected: the tree oracle
            // returns tree occurrences; dedupe by node identity via text +
            // label of subtree serialization is fragile, so compare counts
            // of distinct (type, text) pairs.
            let tree_nodes = eval_on_tree(&tree, dtd, &p);
            let tree_ids: BTreeSet<(String, String)> = tree_nodes
                .iter()
                .map(|&n| (dtd.name(tree.node(n).ty()).to_owned(), tree.text_value(n)))
                .collect();
            let mut cache = HashMap::new();
            let dag_ids: BTreeSet<(String, String)> = dag_result
                .selected
                .iter()
                .map(|&v| {
                    (
                        dtd.name(vs.dag().genid().type_of(v)).to_owned(),
                        vs.text_value(v, &mut cache),
                    )
                })
                .collect();
            assert_eq!(dag_ids, tree_ids, "mismatch on path `{path}`");
        }
    }

    #[test]
    fn unreachable_path_yields_empty() {
        let (vs, topo, reach) = publish(&registrar_database());
        let p = parse_xpath("student/course").unwrap();
        let r = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        assert!(r.is_empty());
        assert!(r.edge_parents.is_empty());
    }

    #[test]
    fn unknown_label_yields_empty() {
        let (vs, topo, reach) = publish(&registrar_database());
        let p = parse_xpath("nonexistent").unwrap();
        let r = eval_xpath_on_dag(&vs, &topo, &reach, &p);
        assert!(r.is_empty());
    }

    #[test]
    fn plan_eval_matches_reference_on_many_paths() {
        let (vs, topo, reach) = publish(&registrar_database());
        let cache = PlanCache::default();
        let dtd = vs.atg().dtd();
        for path in PATHS {
            let p = parse_xpath(path).unwrap();
            let reference = eval_xpath_on_dag(&vs, &topo, &reach, &p);
            // Twice: a cold and a warm (scratch-reusing) execution.
            for _ in 0..2 {
                let (plan, bindings) = cache.plan(dtd, &p);
                let got = eval_plan(&vs, topo.order(), &plan, &bindings);
                assert_eq!(got.selected, reference.selected, "selected on `{path}`");
                assert_eq!(
                    got.edge_parents, reference.edge_parents,
                    "edge_parents on `{path}`"
                );
                assert_eq!(
                    got.matched_nodes, reference.matched_nodes,
                    "matched_nodes on `{path}`"
                );
                assert_eq!(
                    got.matched_edges, reference.matched_edges,
                    "matched_edges on `{path}`"
                );
            }
        }
    }

    /// `n` top-level courses with nothing below them but their own four
    /// children: a star of `5n + 1` nodes in which every cone has 5.
    fn star(n: usize) -> (ViewStore, TopoOrder, Reachability) {
        let mut db = Database::new();
        rxview_atg::registrar_schema(&mut db);
        for i in 0..n {
            db.insert("course", tuple![format!("C{i}"), format!("T{i}"), "CS"])
                .unwrap();
        }
        publish(&db)
    }

    #[test]
    fn scoped_plan_matches_the_reference_full_pass_on_stars() {
        for path in ["//course[cno=C7]/prereq", "course[cno=C7]/prereq"] {
            let p = parse_xpath(path).unwrap();
            for n in [20, 2_000] {
                let (vs, topo, reach) = star(n);
                let cache = PlanCache::default();
                let (plan, bindings) = cache.plan(vs.atg().dtd(), &p);
                let anchors = resolve_anchors(&vs, &plan.class(&bindings), 64, None).unwrap();
                let scope = scope_of_anchors(&vs, &topo, &anchors)
                    .expect("a 6-node cone is worth projecting");
                let scoped = eval_plan(&vs, &scope, &plan, &bindings);
                let full = eval_xpath_on_dag(&vs, &topo, &reach, &p);
                assert_eq!(scoped.selected.len(), 1);
                assert_eq!(scoped.selected, full.selected);
                assert_eq!(scoped.edge_parents, full.edge_parents);
                assert_eq!(scoped.matched_nodes, full.matched_nodes);
                assert_eq!(scoped.matched_edges, full.matched_edges);
            }
        }
    }
}
