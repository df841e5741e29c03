//! The relational coding of the DAG-compressed XML view (§2.3).
//!
//! A [`ViewStore`] bundles the published [`Dag`] (child and parent lists +
//! Skolem interner), whose interner keeps the `gen_A` node tables — one per
//! element type, a row per live node carrying its id — as its only `$A` →
//! id index, with the grammar and the engine-wide [`crate::plan::PlanCache`].
//! The edge views, one per production edge — a **bounded** number of
//! relational views even for recursive σ (the paper's observation 3 in
//! §2.3), plain SPJ queries over the *augmented* database (base ∪ gen,
//! [`ViewStore::augmented`]) — are derived once, by the translation
//! registry ([`ViewStore::templates`]), and never by a load.

use rxview_atg::{Atg, Dag, NodeId, PublishError, SubtreeDag};
use rxview_relstore::{
    Database, RowSource, SchemaProvider, TableSchema, TableSource, Tuple, Value,
};
use rxview_xmlkit::TypeId;
use std::collections::HashMap;
use std::sync::Arc;

/// The materialized relational views `V = V_σ(I)` plus supporting state.
#[derive(Debug, Clone)]
pub struct ViewStore {
    /// The grammar never changes while a store lives, so clones share it.
    atg: Arc<Atg>,
    dag: Dag,
    /// Compiled update plans *and* the per-grammar translation-template
    /// registry, shared (`Arc`) between a snapshot and every clone of it (a
    /// round's working state, the next snapshot): both depend only on the
    /// path shape / the grammar and schemas, so entries never invalidate
    /// while the store's grammar is fixed (see [`crate::plan`] and
    /// [`crate::template`]).
    plan_cache: Arc<crate::plan::PlanCache>,
}

/// The edge views' table source: the base relations, and each type's
/// `gen_A` table of the interner under its name.
struct Augmented<'a> {
    base: &'a Database,
    vs: &'a ViewStore,
}

impl SchemaProvider for Augmented<'_> {
    fn schema_of(&self, table: &str) -> Option<&TableSchema> {
        self.table_src(table).map(RowSource::schema)
    }
}

impl TableSource for Augmented<'_> {
    fn table_src(&self, name: &str) -> Option<&dyn RowSource> {
        if let Ok(table) = self.base.table(name) {
            return Some(table);
        }
        let ty = self.vs.atg.gen_table_type(name)?;
        Some(self.vs.dag.genid().table(ty))
    }
}

impl ViewStore {
    /// Publishes `σ(I)`: the interner's `gen_A` tables are bulk-loaded from
    /// each type's nodes in key order.
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
        Ok((ViewStore::from_parts(atg, dag), leaves_first))
    }

    /// Assembles a store over a [`Dag`], published or loaded, without
    /// re-running `σ(I)`. `atg` must be the grammar the DAG was produced
    /// under — its interner built over [`Atg::gen_table_schemas`].
    pub fn from_parts(atg: Atg, dag: Dag) -> Self {
        ViewStore {
            atg: Arc::new(atg),
            dag,
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

    /// The shared compiled-plan cache (see [`crate::plan::PlanCache`]).
    pub fn plan_cache(&self) -> &Arc<crate::plan::PlanCache> {
        &self.plan_cache
    }

    /// The per-grammar translation-template registry — the one home of the
    /// edge views — compiled on first call and shared through the plan
    /// cache (see [`TranslationTemplates`](crate::TranslationTemplates)).
    pub fn templates(&self) -> &crate::template::TranslationTemplates {
        self.plan_cache.templates(&self.atg)
    }

    /// The augmented table source: base relations shadowing the interner's
    /// `gen_A` tables.
    pub fn augmented<'a>(&'a self, base: &'a Database) -> impl TableSource + 'a {
        Augmented { base, vs: self }
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

    /// Maps an edge-view output row (`$A` fields ++ `$B` fields) back to the
    /// node pair, consulting the interner. Returns `None` if either node is
    /// not live.
    pub fn edge_from_row(
        &self,
        parent_ty: TypeId,
        child_ty: TypeId,
        row: &[Value],
    ) -> Option<(NodeId, NodeId)> {
        let fields = self.atg.attr_fields(parent_ty).len();
        // An empty `$A` is one unit column of the row.
        let (parent_attr, child_attr) = row.split_at(fields.max(1));
        let parent_attr = &parent_attr[..fields];
        let u = self.dag.genid().lookup(parent_ty, parent_attr)?;
        let v = self.dag.genid().lookup(child_ty, child_attr)?;
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

    /// Number of live nodes `n`.
    pub fn n_nodes(&self) -> usize {
        self.dag.n_nodes()
    }

    /// Number of edges `|V|`.
    pub fn n_edges(&self) -> usize {
        self.dag.n_edges()
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
        let gen_course = vs.dag().genid().table(course);
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
        for ((a, b), record) in vs.templates().edges() {
            let rows = eval_spj(&aug, record.view(), &[]).unwrap();
            let from_query: std::collections::BTreeSet<(NodeId, NodeId)> = rows
                .iter()
                .filter_map(|r| vs.edge_from_row(a, b, r.values()))
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
            .lookup(course, tuple!["CS320", "Algorithms"].values())
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
    fn edge_count_bounded_views() {
        let (_db, vs) = store();
        // One view per production edge — bounded by |DTD|, not by |data|.
        assert_eq!(vs.templates().edges().count(), 9);
    }
}
