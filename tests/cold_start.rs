//! Cold start under tier-1: the bulk constructors — `σ(I)` publication and
//! checkpoint load — must build exactly what the one-key-at-a-time
//! constructors they replaced built.
//!
//! The reference publisher below is that replaced code, kept as the
//! oracle: it expands one node at a time, interns through `GenId::gen_id`,
//! links through `Dag::add_edge`, writes the `gen_A` rows it expects by
//! hand through `Table::insert`, and orders `L` with the `BTreeSet` Kahn
//! pass. Node ids, child and parent order, the interner's `gen_A` tables,
//! `L` and the `Exact` digest of a published system must all equal its.

use rxview::atg::{registrar_atg, registrar_database, Dag, GenId, NodeId, PublishError, RuleBody};
use rxview::core::codec::{decode_system, encode_system};
use rxview::core::{Reachability, TopoOrder};
use rxview::prelude::*;
use rxview::relstore::{tuple, Reader};
use rxview::workload::{synthetic_atg, synthetic_database, SyntheticConfig};
use std::collections::{BTreeMap, BTreeSet};

/// `σ(I)` one node, one key, one edge at a time.
fn reference_publish(atg: &Atg, db: &Database) -> (Dag, Database) {
    let mut dag = Dag::new(GenId::new(atg.gen_table_schemas()));
    let (root, _) = dag.genid_mut().gen_id(atg.dtd().root(), Tuple::empty());
    dag.set_root(root);
    let mut stack = vec![root];
    let mut edges = Vec::new();
    let mut seen_edges = BTreeSet::new();
    while let Some(u) = stack.pop() {
        let uty = dag.genid().type_of(u);
        let uattr = dag.genid().attr_of(u).clone();
        for &cty in atg.dtd().children_of(uty) {
            let tuples = match atg.rule(uty, cty) {
                Some(RuleBody::Query { plan, .. }) => {
                    plan.run(db, uattr.values()).expect("rule evaluates")
                }
                Some(RuleBody::Project { fields }) => vec![uattr.project(fields)],
                None => Vec::new(),
            };
            for t in tuples {
                let (v, fresh) = dag.genid_mut().gen_id(cty, t);
                if seen_edges.insert((u, v)) {
                    edges.push((u, v));
                }
                if fresh {
                    stack.push(v);
                }
            }
        }
    }
    for (u, v) in edges {
        dag.add_edge(u, v);
    }

    let mut gen_db = Database::new();
    for ty in atg.dtd().types() {
        gen_db.create_table(atg.gen_table_schema(ty)).unwrap();
    }
    for id in dag.genid().live_ids() {
        let attr = dag.genid().attr_of(id);
        let row = match attr.arity() {
            0 => tuple![0i64],
            _ => attr.clone(),
        };
        let table = atg.gen_table_name(dag.genid().type_of(id));
        assert!(gen_db.insert(&table, row).unwrap());
    }
    (dag, gen_db)
}

/// `L` by the Kahn pass over hash maps and an ordered ready set.
fn reference_order(dag: &Dag) -> Vec<NodeId> {
    let mut outdeg: BTreeMap<NodeId, usize> = dag
        .genid()
        .live_ids()
        .map(|id| (id, dag.children(id).len()))
        .collect();
    let mut ready: BTreeSet<NodeId> = outdeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    let mut order = Vec::new();
    while let Some(n) = ready.pop_first() {
        order.push(n);
        for p in dag.parents(n) {
            let d = outdeg.get_mut(p).unwrap();
            *d -= 1;
            if *d == 0 {
                ready.insert(*p);
            }
        }
    }
    assert_eq!(order.len(), outdeg.len(), "reference fixture is acyclic");
    order
}

fn assert_publishes_like_the_reference(atg: Atg, db: Database) {
    let (ref_dag, ref_gen) = reference_publish(&atg, &db);
    let sys = XmlViewSystem::new(atg.clone(), db.clone()).expect("publishes");
    let dag = sys.view().dag();

    // The interner: same ids for the same pairs, all live, and findable
    // through the bulk-built `gen_A` tables.
    let n = ref_dag.genid().n_allocated();
    assert!(n > 1);
    assert_eq!(dag.genid().n_allocated(), n);
    assert_eq!(dag.genid().n_live(), n);
    assert_eq!(dag.root(), ref_dag.root());
    for id in (0..n as u32).map(NodeId) {
        let (ty, attr) = (ref_dag.genid().type_of(id), ref_dag.genid().attr_of(id));
        assert_eq!(dag.genid().type_of(id), ty);
        assert_eq!(dag.genid().attr_of(id), attr);
        assert!(dag.genid().is_live(id));
        assert_eq!(dag.genid().lookup(ty, attr.values()), Some(id));
        assert_eq!(dag.children(id), ref_dag.children(id), "children of {id:?}");
        assert_eq!(dag.parents(id), ref_dag.parents(id), "parents of {id:?}");
    }
    for ty in atg.dtd().types() {
        for &child in atg.dtd().children_of(ty) {
            let edge_rel = |dag: &Dag| {
                let typed = |&(u, v): &(NodeId, NodeId)| {
                    (dag.genid().type_of(u), dag.genid().type_of(v)) == (ty, child)
                };
                dag.all_edges().filter(typed).collect::<Vec<_>>()
            };
            assert_eq!(edge_rel(dag), edge_rel(&ref_dag));
        }
        let name = atg.gen_table_name(ty);
        let expected: Vec<_> = ref_gen.table(&name).unwrap().iter().collect();
        for dag in [dag, &ref_dag] {
            let rows: Vec<_> = dag.genid().table(ty).entries().collect();
            assert!(
                rows.iter().map(|r| r.0).eq(expected.iter().copied()),
                "{name}"
            );
            let carried = |&(row, id): &(&Tuple, &NodeId)| dag.genid().gen_row(*id) == *row;
            assert!(
                rows.iter().all(carried),
                "{name}: a row carries another node's id"
            );
        }
    }
    assert!(dag.all_edges().eq(ref_dag.all_edges()));
    assert_eq!(dag.n_edges(), ref_dag.n_edges());

    let ref_order = reference_order(&ref_dag);
    assert_eq!(sys.topo().order(), ref_order);

    let ref_topo = TopoOrder::from_order(ref_order);
    let ref_reach = Reachability::compute(&ref_dag, &ref_topo);
    let ref_sys =
        XmlViewSystem::from_parts(db, ViewStore::from_parts(atg, ref_dag), ref_topo, ref_reach);
    let differs = sys.exact_digest().first_difference(&ref_sys.exact_digest());
    assert_eq!(differs, None, "the Exact digest");
    sys.consistency_check().unwrap();
}

#[test]
fn publication_equals_the_reference_publisher() {
    let db = registrar_database();
    assert_publishes_like_the_reference(registrar_atg(&db).unwrap(), db);

    // 64 groups of 40.
    let db = synthetic_database(&SyntheticConfig::with_size(64 * 40));
    assert_publishes_like_the_reference(synthetic_atg(&db).unwrap(), db);

    // Base rows no published root reaches stay out of the view.
    let db = synthetic_database(&SyntheticConfig {
        detached_chains: vec![15, 7],
        ..SyntheticConfig::with_size(200)
    });
    assert_publishes_like_the_reference(synthetic_atg(&db).unwrap(), db);
}

/// How many rows of `F` are the allocation of `C`'s row at their key.
fn f_rows_held_by_c(db: &Database) -> usize {
    let (c, f) = (db.table("C").unwrap(), db.table("F").unwrap());
    let held = |row: &&Tuple| {
        let donor = c.get(&Tuple::from_values([row[0].clone()]));
        donor.is_some_and(|d| std::ptr::eq(d.values(), row.values()))
    };
    f.iter().filter(held).count()
}

/// `new` publishes, then shares equal rows in place: on a base whose `F`
/// rows are allocations of their own (as generated) it reaches the state
/// it reaches on a copy whose rows were shared before — the same ids, `L`
/// and `Exact` digest — and shares the same rows.
#[test]
fn sharing_after_publication_reaches_the_state_of_sharing_before() {
    let db = synthetic_database(&SyntheticConfig {
        detached_chains: vec![15],
        ..SyntheticConfig::with_size(64 * 40)
    });
    let atg = synthetic_atg(&db).unwrap();
    let mut pre_shared = db.clone();
    let shared = pre_shared.share_equal_rows();
    // Nothing of the generated `F` is `C`'s yet; sharing makes most of it.
    assert_eq!(f_rows_held_by_c(&db), 0);

    let from_separate = XmlViewSystem::new(atg.clone(), db).unwrap();
    let from_shared = XmlViewSystem::new(atg, pre_shared).unwrap();
    let differs = from_separate
        .exact_digest()
        .first_difference(&from_shared.exact_digest());
    assert_eq!(differs, None, "the Exact digest");
    assert_eq!(from_separate.topo().order(), from_shared.topo().order());
    let (a, b) = (
        from_separate.view().dag().genid(),
        from_shared.view().dag().genid(),
    );
    assert_eq!(a.n_allocated(), b.n_allocated());
    for id in a.live_ids() {
        assert_eq!(
            (a.type_of(id), a.attr_of(id)),
            (b.type_of(id), b.attr_of(id))
        );
    }
    let held = f_rows_held_by_c(from_separate.base());
    assert!(held > 1_000, "{held} F rows share C's");
    assert_eq!(held, f_rows_held_by_c(from_shared.base()));
    // Asked again, each base has every row it can share shared already.
    for sys in [&from_separate, &from_shared] {
        assert_eq!(sys.base().clone().share_equal_rows(), shared);
    }
    from_separate.consistency_check().unwrap();
}

/// A system a few updates past its publication: released ids, reused ids,
/// parents linked out of id order.
fn evolved_systems() -> Vec<XmlViewSystem> {
    let db = registrar_database();
    let mut registrar = XmlViewSystem::new(registrar_atg(&db).unwrap(), db).unwrap();
    let updates = [
        XmlUpdate::delete("//student[ssn=S02]").unwrap(),
        XmlUpdate::insert(
            "course",
            tuple!["CS999", "Recovery"],
            "course[cno=CS650]/prereq",
        )
        .unwrap(),
        XmlUpdate::delete("course[cno=CS650]/prereq/course[cno=CS999]").unwrap(),
    ];
    for u in &updates {
        registrar.apply(u, SideEffectPolicy::Proceed).unwrap();
    }

    let db = synthetic_database(&SyntheticConfig {
        detached_chains: vec![7],
        ..SyntheticConfig::with_size(400)
    });
    let mut synthetic = XmlViewSystem::new(synthetic_atg(&db).unwrap(), db).unwrap();
    let h = synthetic.base().table("H").unwrap();
    let edges: Vec<(i64, i64)> = h
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .filter(|(h1, _)| h1 % 40 == 0)
        .take(6)
        .collect();
    let mut applied = 0;
    for (h1, h2) in edges {
        let delete = XmlUpdate::delete(&format!("node[id={h1}]/sub/node[id={h2}]")).unwrap();
        applied += usize::from(synthetic.apply(&delete, SideEffectPolicy::Proceed).is_ok());
    }
    assert!(applied > 0, "some deletion went through");
    let head = XmlUpdate::insert("node", tuple![400i64, 0i64], "node[id=0]/sub").unwrap();
    // Accepted or not, the attempt interns (and on rejection releases) ids.
    let _ = synthetic.apply(&head, SideEffectPolicy::Proceed);
    vec![registrar, synthetic]
}

#[test]
fn checkpoint_load_rebuilds_the_same_system() {
    for sys in evolved_systems() {
        let mut bytes = Vec::new();
        encode_system(&sys, &mut bytes);
        let mut r = Reader::new(&bytes);
        let back = decode_system(sys.view().atg(), &mut r).expect("decodes");
        assert!(r.is_empty());
        let differs = back.exact_digest().first_difference(&sys.exact_digest());
        assert_eq!(differs, None, "the loaded state");
        back.consistency_check().unwrap();

        let (dag, loaded) = (sys.view().dag(), back.view().dag());
        for id in (0..dag.genid().n_allocated() as u32).map(NodeId) {
            assert_eq!(loaded.children(id), dag.children(id));
            // A load lists a node's parents in id order.
            let mut parents = dag.parents(id).to_vec();
            parents.sort_unstable();
            assert_eq!(loaded.parents(id), parents);
            assert_eq!(loaded.genid().is_live(id), dag.genid().is_live(id));
            if dag.genid().is_live(id) {
                let (ty, attr) = (dag.genid().type_of(id), dag.genid().attr_of(id));
                assert_eq!(loaded.genid().lookup(ty, attr.values()), Some(id));
            }
        }
        // The ids the updates released come back as free ids.
        assert!(dag.genid().n_free() > 0);
        assert_eq!(loaded.genid().n_free(), dag.genid().n_free());
        assert!(loaded.all_edges().eq(dag.all_edges()));
    }
}

#[test]
fn cyclic_base_data_is_still_rejected() {
    let mut db = registrar_database();
    // CS650 -> CS320 -> CS240 -> CS650.
    db.insert("prereq", tuple!["CS240", "CS650"]).unwrap();
    let atg = registrar_atg(&db).unwrap();
    assert_eq!(
        ViewStore::publish(atg, &db).err(),
        Some(PublishError::CyclicData)
    );
}
