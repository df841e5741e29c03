//! The relational coding of the DAG-compressed XML view (§2.3).
//!
//! A [`ViewStore`] bundles:
//! - the published [`Dag`] (child and parent lists + Skolem interner);
//! - the derived `gen_A` node tables, materialized as ordinary relations so
//!   that the edge views `Q_edge_A_B` are plain SPJ queries over the
//!   *augmented* database (base ∪ gen);
//! - the derived edge-view queries themselves, one per production edge —
//!   a **bounded** number of relational views even for recursive σ (the
//!   paper's observation 3 in §2.3).

use rxview_atg::{Atg, Dag, NodeId, PublishError, SubtreeDag};
use rxview_relstore::{Augmented, Database, RelResult, SpjQuery, Table, TableSource, Tuple, Value};
use rxview_xmlkit::TypeId;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The materialized relational views `V = V_σ(I)` plus supporting state.
#[derive(Debug, Clone)]
pub struct ViewStore {
    /// The grammar and its derived edge views never change while a store
    /// lives, so clones share them.
    atg: Arc<Atg>,
    dag: Dag,
    gen_db: Database,
    edge_queries: Arc<BTreeMap<(TypeId, TypeId), SpjQuery>>,
    /// Compiled update plans *and* the per-grammar translation-template
    /// registry, shared (`Arc`) between a snapshot and every clone of it (a
    /// round's working state, the next snapshot): both depend only on the
    /// path shape / the grammar and schemas, so entries never invalidate
    /// while the store's grammar is fixed (see [`crate::plan`] and
    /// [`crate::template`]).
    plan_cache: Arc<crate::plan::PlanCache>,
}

impl ViewStore {
    /// Publishes `σ(I)` and materializes the relational coding: each
    /// `gen_A` table is bulk-loaded from its type's nodes in key order.
    pub fn publish(atg: Atg, db: &Database) -> Result<Self, PublishError> {
        ViewStore::publish_leaves_first(atg, db).map(|(vs, _)| vs)
    }

    /// [`ViewStore::publish`], and the view's nodes leaves first — `L`, as
    /// publication's acyclicity check computed it
    /// ([`rxview_atg::publish_leaves_first`]).
    pub(crate) fn publish_leaves_first(
        atg: Atg,
        db: &Database,
    ) -> Result<(Self, Vec<NodeId>), PublishError> {
        let (dag, leaves_first) = rxview_atg::publish_leaves_first(&atg, db)?;
        let vs = ViewStore::from_dag(atg, dag)
            .expect("distinct nodes of a type have distinct, well-typed attributes");
        Ok((vs, leaves_first))
    }

    /// The store over a [`Dag`], published or loaded: each `gen_A` table is
    /// laid out from the interner — its type's live nodes in key order
    /// ([`gen_rows`]), bulk-loaded with [`Table::from_sorted_rows`]. Fails
    /// on a `$A` its table's schema rejects or two nodes of a type with one
    /// `gen_A` row, which only a corrupt checkpoint holds.
    pub(crate) fn from_dag(atg: Atg, dag: Dag) -> RelResult<Self> {
        let mut gen_db = Database::new();
        let rows = gen_rows(&dag, atg.dtd().n_types());
        for (ty, rows) in atg.dtd().types().zip(rows) {
            gen_db.add_table(Table::from_sorted_rows(atg.gen_table_schema(ty), rows)?)?;
        }
        Ok(ViewStore::from_parts(atg, dag, gen_db))
    }

    /// Assembles a store from its parts — a [`Dag`] and the `gen_A`
    /// database that registers its nodes — without re-running `σ(I)`. The
    /// edge-view queries are grammar-derived (bounded by `|DTD|`, §2.3) and
    /// are rebuilt from `atg`, which must be the grammar the parts were
    /// produced under.
    pub fn from_parts(atg: Atg, dag: Dag, gen_db: Database) -> Self {
        let mut edge_queries = BTreeMap::new();
        for parent in atg.dtd().types() {
            for child in atg.dtd().children_of(parent) {
                if let Some(q) = atg.edge_view_query(parent, child) {
                    edge_queries.insert((parent, child), q);
                }
            }
        }
        ViewStore {
            atg: Arc::new(atg),
            dag,
            gen_db,
            edge_queries: Arc::new(edge_queries),
            plan_cache: Arc::default(),
        }
    }

    /// The grammar.
    pub fn atg(&self) -> &Atg {
        &self.atg
    }

    /// The DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Mutable DAG access (update application).
    pub(crate) fn dag_mut(&mut self) -> &mut Dag {
        &mut self.dag
    }

    /// The database of `gen_A` tables.
    pub fn gen_db(&self) -> &Database {
        &self.gen_db
    }

    /// The shared compiled-plan cache (see [`crate::plan::PlanCache`]).
    pub fn plan_cache(&self) -> &Arc<crate::plan::PlanCache> {
        &self.plan_cache
    }

    /// The per-grammar translation-template registry, compiled on first
    /// call and shared through the plan cache (see
    /// [`TranslationTemplates`](crate::TranslationTemplates)).
    pub fn templates(&self) -> Arc<crate::template::TranslationTemplates> {
        self.plan_cache.templates(&self.atg)
    }

    /// Counters of the template registry.
    pub fn template_stats(&self) -> crate::plan::PlanCacheStats {
        self.plan_cache.template_stats()
    }

    /// The augmented table source: base relations shadowing the gen tables.
    pub fn augmented<'a>(&'a self, base: &'a Database) -> Augmented<'a> {
        Augmented {
            primary: base,
            secondary: &self.gen_db,
        }
    }

    /// The edge-view query for a production edge.
    pub fn edge_query(&self, parent: TypeId, child: TypeId) -> Option<&SpjQuery> {
        self.edge_queries.get(&(parent, child))
    }

    /// All edge-view queries.
    pub fn edge_queries(&self) -> impl Iterator<Item = (&(TypeId, TypeId), &SpjQuery)> {
        self.edge_queries.iter()
    }

    /// Generates the subtree `ST(A, t)` into this store's interner (see
    /// [`rxview_atg::generate_subtree`]).
    pub(crate) fn generate_subtree(
        &mut self,
        src: &impl TableSource,
        ty: TypeId,
        attr: Tuple,
    ) -> Result<SubtreeDag, PublishError> {
        rxview_atg::generate_subtree(&self.atg, src, self.dag.genid_mut(), ty, attr)
    }

    /// The `gen_A` row for a node (unit tuple for zero-arity attributes).
    pub fn gen_row(&self, id: NodeId) -> Tuple {
        gen_row_of(self.dag.genid().attr_of(id))
    }

    /// The live node of `ty` a `gen_A` row stands for — the inverse of
    /// [`ViewStore::gen_row`]: the unit row of a type with no attribute
    /// fields stands for the empty `$A`.
    pub(crate) fn node_of_gen_row(&self, ty: TypeId, row: &Tuple) -> Option<NodeId> {
        let genid = self.dag.genid();
        if self.atg.attr_fields(ty).is_empty() {
            genid.lookup(ty, &Tuple::empty())
        } else {
            genid.lookup(ty, row)
        }
    }

    /// Registers a (newly live) node in its `gen_A` table.
    pub(crate) fn register_node(&mut self, id: NodeId) -> RelResult<()> {
        let ty = self.dag.genid().type_of(id);
        let name = self.atg.gen_table_name(ty);
        let row = self.gen_row(id);
        self.gen_db.table_mut(&name)?.insert(row)?;
        Ok(())
    }

    /// Removes a node from its `gen_A` table (garbage collection, §2.3) and
    /// releases its id in the interner. The caller has already removed the
    /// node's edges and its entries in `M` and `L`.
    pub(crate) fn unregister_node(&mut self, id: NodeId) -> RelResult<()> {
        let ty = self.dag.genid().type_of(id);
        let name = self.atg.gen_table_name(ty);
        let row = self.gen_row(id);
        let key = self.gen_db.table(&name)?.schema().key_of(&row);
        let _ = self.gen_db.table_mut(&name)?.delete(&key);
        self.dag.genid_mut().retire(id);
        Ok(())
    }

    /// Maps an edge-view output row (`$A` fields ++ `$B` fields) back to the
    /// node pair, consulting the interner. Returns `None` if either node is
    /// not live.
    pub fn edge_from_row(
        &self,
        parent_ty: TypeId,
        child_ty: TypeId,
        row: &Tuple,
    ) -> Option<(NodeId, NodeId)> {
        let p_arity = self.atg.attr_fields(parent_ty).len().max(1);
        let parent_attr = if self.atg.attr_fields(parent_ty).is_empty() {
            Tuple::empty()
        } else {
            Tuple::from_values(row.values()[..p_arity].iter().cloned())
        };
        let child_attr = Tuple::from_values(row.values()[p_arity..].iter().cloned());
        let u = self.dag.genid().lookup(parent_ty, &parent_attr)?;
        let v = self.dag.genid().lookup(child_ty, &child_attr)?;
        Some((u, v))
    }

    /// The string value of a node: for `pcdata` nodes the rendered attribute,
    /// otherwise the concatenation of descendant texts in child order
    /// (memoized in `cache`, which callers share across one evaluation).
    pub fn text_value(&self, v: NodeId, cache: &mut HashMap<NodeId, String>) -> String {
        if let Some(t) = cache.get(&v) {
            return t.clone();
        }
        let ty = self.dag.genid().type_of(v);
        let out = if self.atg.dtd().is_pcdata(ty) {
            self.atg.text_of(ty, self.dag.genid().attr_of(v))
        } else {
            let mut s = String::new();
            for &c in self.dag.children(v) {
                s.push_str(&self.text_value(c, cache));
            }
            s
        };
        cache.insert(v, out.clone());
        out
    }

    /// Whether each `gen_A` table is what [`ViewStore::from_dag`] lays out:
    /// one row per live node of its type ([`gen_row_of`] its `$A`) and no
    /// other — rows counted per type and each live node's row looked up.
    pub(crate) fn check_gen_tables(&self) -> Result<(), String> {
        let (genid, dtd) = (self.dag.genid(), self.atg.dtd());
        let table = |ty| self.gen_db.table(&self.atg.gen_table_name(ty));
        let tables = dtd.types().map(table).collect::<RelResult<Vec<_>>>();
        let tables = tables.map_err(|e| e.to_string())?;
        let mut live = vec![0; tables.len()];
        for id in genid.live_ids() {
            let (ty, row) = (genid.type_of(id), gen_row_of(genid.attr_of(id)));
            live[ty.index()] += 1;
            if !tables[ty.index()].contains_tuple(&row) {
                return Err(format!("gen_{} lacks node {}'s row", dtd.name(ty), id.0));
            }
        }
        let extra = dtd
            .types()
            .find(|t| tables[t.index()].len() != live[t.index()]);
        match extra {
            Some(ty) => Err(format!("gen_{} holds a row of no live node", dtd.name(ty))),
            None => Ok(()),
        }
    }

    /// Number of live nodes `n`.
    pub fn n_nodes(&self) -> usize {
        self.dag.n_nodes()
    }

    /// Number of edges `|V|`.
    pub fn n_edges(&self) -> usize {
        self.dag.n_edges()
    }
}

/// The rows of every type's `gen_A` table, indexed by type, each in its
/// key order: for every live node the interner's own `$A` tuple — a handle
/// to it, not a copy — which is how a published view pays for an attribute
/// once. One pass over the interner's slots groups them by type.
fn gen_rows(dag: &Dag, n_types: usize) -> Vec<Vec<Tuple>> {
    let genid = dag.genid();
    let mut rows = vec![Vec::new(); n_types];
    for id in genid.live_ids() {
        rows[genid.type_of(id).index()].push(gen_row_of(genid.attr_of(id)));
    }
    for rows in &mut rows {
        rows.sort_unstable();
    }
    rows
}

/// The `gen_A` row of a node with attribute `attr`.
fn gen_row_of(attr: &Tuple) -> Tuple {
    if attr.arity() == 0 {
        Tuple::from_values([Value::Int(0)])
    } else {
        attr.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rxview_atg::{registrar_atg, registrar_database};
    use rxview_relstore::{eval_spj, tuple};

    fn store() -> (Database, ViewStore) {
        let db = registrar_database();
        let atg = registrar_atg(&db).unwrap();
        let vs = ViewStore::publish(atg, &db).unwrap();
        (db, vs)
    }

    #[test]
    fn gen_tables_mirror_live_nodes() {
        let (_db, vs) = store();
        let course = vs.atg().dtd().type_id("course").unwrap();
        let gen_course = vs.gen_db().table("gen_course").unwrap();
        let genid = vs.dag().genid();
        let is_course = |&id: &NodeId| genid.type_of(id) == course;
        assert_eq!(gen_course.len(), genid.live_ids().filter(is_course).count());
        assert!(gen_course.contains_key(&tuple!["CS320", "Algorithms"]));
    }

    #[test]
    fn edge_views_reproduce_dag_edges() {
        let (db, vs) = store();
        let dtd = vs.atg().dtd();
        let aug = vs.augmented(&db);
        for (&(a, b), q) in vs.edge_queries() {
            let rows = eval_spj(&aug, q, &[]).unwrap();
            let from_query: std::collections::BTreeSet<(NodeId, NodeId)> = rows
                .iter()
                .filter_map(|r| vs.edge_from_row(a, b, r))
                .collect();
            let ty = |v| vs.dag().genid().type_of(v);
            let from_dag: std::collections::BTreeSet<(NodeId, NodeId)> = vs
                .dag()
                .all_edges()
                .filter(|&(u, v)| (ty(u), ty(v)) == (a, b))
                .collect();
            assert_eq!(
                from_query,
                from_dag,
                "edge view mismatch for {} -> {}",
                dtd.name(a),
                dtd.name(b)
            );
        }
    }

    #[test]
    fn text_values() {
        let (_db, vs) = store();
        let course = vs.atg().dtd().type_id("course").unwrap();
        let cno = vs.atg().dtd().type_id("cno").unwrap();
        let cs320 = vs
            .dag()
            .genid()
            .lookup(course, &tuple!["CS320", "Algorithms"])
            .unwrap();
        let mut cache = HashMap::new();
        // cno child text.
        let cno_node = vs
            .dag()
            .children(cs320)
            .iter()
            .copied()
            .find(|&c| vs.dag().genid().type_of(c) == cno)
            .unwrap();
        assert_eq!(vs.text_value(cno_node, &mut cache), "CS320");
        // Element text concatenates.
        let t = vs.text_value(cs320, &mut cache);
        assert!(t.starts_with("CS320Algorithms"));
    }

    #[test]
    fn register_unregister_round_trip() {
        let (_db, mut vs) = store();
        let student = vs.atg().dtd().type_id("student").unwrap();
        let (id, fresh) = vs
            .dag_mut()
            .genid_mut()
            .gen_id(student, tuple!["S99", "Zed"]);
        assert!(fresh);
        vs.register_node(id).unwrap();
        assert!(vs
            .gen_db()
            .table("gen_student")
            .unwrap()
            .contains_key(&tuple!["S99", "Zed"]));
        vs.unregister_node(id).unwrap();
        assert!(!vs
            .gen_db()
            .table("gen_student")
            .unwrap()
            .contains_key(&tuple!["S99", "Zed"]));
        assert!(!vs.dag().genid().is_live(id));
    }

    #[test]
    fn edge_count_bounded_views() {
        let (_db, vs) = store();
        // One view per production edge — bounded by |DTD|, not by |data|.
        assert_eq!(vs.edge_queries().count(), 9);
    }
}
