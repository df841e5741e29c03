//! Attribute translation grammars (§2.2).
//!
//! An ATG `σ : R → D` associates with every element type `A` of the DTD a
//! *semantic attribute* `$A` (a typed tuple) and with every production edge
//! `A → … B …` a rule computing the `B` children of an `A` node from the
//! relational database and `$A`:
//!
//! - **Query rules** (`$B ← Q($A)`) run a parameterized SPJ query — the form
//!   used for `A → B*` productions (e.g. `Q_prereq_course` in Fig.2);
//! - **Projection rules** (`$B = $A.f₁,…`) pass fields of the parent
//!   attribute down — the form used for sequence children (e.g.
//!   `$cno = $course.cno`).
//!
//! Construction validates the grammar: every reachable production edge has a
//! rule, attribute types are consistent across all rules producing a type,
//! and — per §4.1 — every query rule is *key-preserving* (each base table's
//! key is determined by the rule's output, parameters, and constants through
//! its equality predicates), which is what makes update translation possible.

use crate::genid::UNIT_COLUMN;
use rxview_relstore::{
    ColRef, EqPred, Operand, RelError, RelResult, SchemaProvider, SpjPlan, SpjQuery, TableRef,
    TableSchema, Tuple, ValueType,
};
use rxview_xmlkit::{Dtd, TypeId};
use std::collections::BTreeMap;
use std::fmt;

/// The body of an ATG rule for a `(parent, child)` production edge.
#[derive(Debug, Clone)]
// A grammar holds one body per production edge — a handful, never moved.
#[allow(clippy::large_enum_variant)]
pub enum RuleBody {
    /// `$child ← query($parent.f…)`: an SPJ query whose `i`-th parameter is
    /// the parent attribute field at `param_fields[i]`.
    Query {
        /// The SPJ query over base relations.
        query: SpjQuery,
        /// For each query parameter, the parent-attribute field feeding it.
        param_fields: Vec<usize>,
        /// `query` compiled with its `i`-th parameter rewritten to parent
        /// field `param_fields[i]`, so a run takes `$parent`'s values as
        /// they are — what subtree generation binds and runs.
        plan: SpjPlan,
    },
    /// `$child = ($parent.f₁, …, $parent.fₙ)`.
    Project {
        /// Parent-attribute field positions forming the child attribute.
        fields: Vec<usize>,
    },
}

/// Errors in ATG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum AtgError {
    /// A type name does not exist in the DTD.
    UnknownType(String),
    /// No semantic attribute declared for a type that needs one.
    MissingAttr(String),
    /// A production edge reachable from the root has no rule.
    MissingRule { parent: String, child: String },
    /// A rule was defined twice for the same edge.
    DuplicateRule { parent: String, child: String },
    /// An attribute field name is not declared on the parent.
    UnknownAttrField { ty: String, field: String },
    /// Rule output arity/types disagree with the child attribute.
    AttrMismatch { ty: String, detail: String },
    /// A query rule is not key-preserving (§4.1).
    NotKeyPreserving { parent: String, child: String },
    /// Underlying relational error.
    Rel(RelError),
}

impl fmt::Display for AtgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtgError::UnknownType(t) => write!(f, "unknown element type `{t}`"),
            AtgError::MissingAttr(t) => write!(f, "no semantic attribute declared for `{t}`"),
            AtgError::MissingRule { parent, child } => {
                write!(f, "no rule for production edge `{parent}` -> `{child}`")
            }
            AtgError::DuplicateRule { parent, child } => {
                write!(f, "duplicate rule for `{parent}` -> `{child}`")
            }
            AtgError::UnknownAttrField { ty, field } => {
                write!(f, "attribute of `{ty}` has no field `{field}`")
            }
            AtgError::AttrMismatch { ty, detail } => {
                write!(f, "attribute mismatch for `{ty}`: {detail}")
            }
            AtgError::NotKeyPreserving { parent, child } => {
                write!(f, "rule for `{parent}` -> `{child}` is not key-preserving")
            }
            AtgError::Rel(e) => write!(f, "relational error: {e}"),
        }
    }
}

impl std::error::Error for AtgError {}

impl From<RelError> for AtgError {
    fn from(e: RelError) -> Self {
        AtgError::Rel(e)
    }
}

/// A validated attribute translation grammar.
#[derive(Debug, Clone)]
pub struct Atg {
    dtd: Dtd,
    attr_names: Vec<Vec<String>>,
    attr_types: Vec<Vec<ValueType>>,
    /// Per parent type, the rule of each child type its production names,
    /// in production order, a child type named twice once.
    rules: Vec<Vec<(TypeId, RuleBody)>>,
    base_schemas: Vec<TableSchema>,
}

impl Atg {
    /// Starts building an ATG over `dtd`.
    pub fn builder(dtd: Dtd) -> AtgBuilder {
        AtgBuilder {
            dtd,
            attrs: BTreeMap::new(),
            rules: Vec::new(),
        }
    }

    /// The DTD `D` embedded in the grammar.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// Field names of `$ty`.
    pub fn attr_fields(&self, ty: TypeId) -> &[String] {
        &self.attr_names[ty.index()]
    }

    /// Field types of `$ty`.
    pub fn attr_types(&self, ty: TypeId) -> &[ValueType] {
        &self.attr_types[ty.index()]
    }

    /// The rule for a production edge, if any.
    pub fn rule(&self, parent: TypeId, child: TypeId) -> Option<&RuleBody> {
        let rules = self.rules.get(parent.index())?;
        rules
            .iter()
            .find(|(c, _)| *c == child)
            .map(|(_, rule)| rule)
    }

    /// The rules of `parent`'s production edges, in production order, a
    /// child type named twice once: what generating a node's children runs.
    pub(crate) fn rules_of(&self, parent: TypeId) -> &[(TypeId, RuleBody)] {
        &self.rules[parent.index()]
    }

    /// The name of the derived node table `gen_A` (§2.3).
    pub fn gen_table_name(&self, ty: TypeId) -> String {
        format!("gen_{}", self.dtd.name(ty))
    }

    /// The type whose `gen_A` table is called `name`: the inverse of
    /// [`Atg::gen_table_name`].
    pub fn gen_table_type(&self, name: &str) -> Option<TypeId> {
        self.dtd.type_id(name.strip_prefix("gen_")?)
    }

    /// Schema of `gen_A`: one column per attribute field, all-key.
    ///
    /// For zero-arity attributes (the root), a single synthetic unit column
    /// is used so the relation is representable.
    pub fn gen_table_schema(&self, ty: TypeId) -> TableSchema {
        let fields = self.attr_fields(ty);
        let types = self.attr_types(ty);
        if fields.is_empty() {
            return TableSchema::new(
                self.gen_table_name(ty),
                vec![rxview_relstore::ColumnDef::new(UNIT_COLUMN, ValueType::Int)],
                vec![0],
            );
        }
        let cols = fields
            .iter()
            .zip(types)
            .map(|(n, t)| rxview_relstore::ColumnDef::new(n.clone(), *t))
            .collect::<Vec<_>>();
        let key = (0..fields.len()).collect();
        TableSchema::new(self.gen_table_name(ty), cols, key)
    }

    /// The schema of every `gen_A` table, in type order: what a view's
    /// interner is built over ([`crate::GenId::new`]).
    pub fn gen_table_schemas(&self) -> Vec<TableSchema> {
        self.dtd
            .types()
            .map(|ty| self.gen_table_schema(ty))
            .collect()
    }

    /// All schemas: base relations plus every `gen_A` table. This is the
    /// schema provider for the *augmented* edge views of §2.3.
    pub fn augmented_schemas(&self) -> Vec<TableSchema> {
        let mut out = self.base_schemas.clone();
        out.extend(self.gen_table_schemas());
        out
    }

    /// Renders the text content of a `pcdata` node from its attribute.
    pub fn text_of(&self, ty: TypeId, attr: &Tuple) -> String {
        debug_assert!(self.dtd.is_pcdata(ty));
        attr.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Whether [`Atg::text_of`]`(ty, attr)` equals `text`, compared value by
    /// value in place — nothing is rendered, so a value filter costs no
    /// allocation per `pcdata` node it visits.
    pub fn text_eq(&self, ty: TypeId, attr: &Tuple, text: &str) -> bool {
        debug_assert!(self.dtd.is_pcdata(ty));
        let mut rest = Some(text);
        for (i, v) in attr.iter().enumerate() {
            if i > 0 {
                rest = rest.and_then(|r| r.strip_prefix(' '));
            }
            rest = rest.and_then(|r| v.strip_rendered(r));
        }
        rest == Some("")
    }

    /// Derives the *edge view* `Q_edge_A_B` (§2.3): a non-parameterized SPJ
    /// query over `gen_A` plus the rule's base relations whose output is
    /// `($A fields…, $B fields…)` — i.e. one row per edge of the DAG.
    ///
    /// Returns `None` if the production edge has no rule. Validated against
    /// `provider`, which holds [`Atg::augmented_schemas`].
    pub fn edge_view_query(
        &self,
        parent: TypeId,
        child: TypeId,
        provider: &impl SchemaProvider,
    ) -> Option<SpjQuery> {
        let rule = self.rule(parent, child)?;
        let gen_name = self.gen_table_name(parent);
        let parent_arity = self.attr_fields(parent).len().max(1); // unit col if empty
        let name = format!("Qedge_{}_{}", self.dtd.name(parent), self.dtd.name(child));
        let mut from = vec![TableRef {
            table: gen_name,
            alias: "__gen".into(),
        }];
        let mut predicates: Vec<EqPred> = Vec::new();
        let mut projection: Vec<ColRef> = Vec::new();
        let mut out_names: Vec<String> = Vec::new();
        // Project the parent attribute (the full gen_A row).
        for (i, n) in self.attr_fields(parent).iter().enumerate() {
            projection.push(ColRef { rel: 0, col: i });
            out_names.push(format!("p_{n}"));
        }
        if self.attr_fields(parent).is_empty() {
            projection.push(ColRef { rel: 0, col: 0 });
            out_names.push(format!("p_{UNIT_COLUMN}"));
        }
        match rule {
            RuleBody::Project { fields } => {
                for (j, &fidx) in fields.iter().enumerate() {
                    debug_assert!(fidx < parent_arity);
                    projection.push(ColRef { rel: 0, col: fidx });
                    out_names.push(format!("c_{j}"));
                }
            }
            RuleBody::Query {
                query,
                param_fields,
                ..
            } => {
                // Shift the rule's FROM entries to positions 1.. and rewrite
                // parameters to gen_A columns.
                for tr in query.from() {
                    from.push(TableRef {
                        table: tr.table.clone(),
                        alias: format!("r_{}", tr.alias),
                    });
                }
                let shift = |c: ColRef| ColRef {
                    rel: c.rel + 1,
                    col: c.col,
                };
                let conv = |o: &Operand| -> Operand {
                    match o {
                        Operand::Col(c) => Operand::Col(shift(*c)),
                        Operand::Const(v) => Operand::Const(v.clone()),
                        Operand::Param(i) => Operand::Col(ColRef {
                            rel: 0,
                            col: param_fields[*i],
                        }),
                    }
                };
                for p in query.predicates() {
                    predicates.push(EqPred {
                        left: conv(&p.left),
                        right: conv(&p.right),
                    });
                }
                for (j, c) in query.projection().iter().enumerate() {
                    projection.push(shift(*c));
                    out_names.push(format!("c_{}", query.out_names()[j]));
                }
            }
        }
        Some(
            SpjQuery::from_parts(name, from, predicates, projection, out_names, 0, provider)
                .expect("edge view derived from validated rule"),
        )
    }
}

/// Builder for [`Atg`]; see the module docs for the expected shape.
pub struct AtgBuilder {
    dtd: Dtd,
    attrs: BTreeMap<String, Vec<String>>,
    rules: Vec<(String, String, PendingRule)>,
}

enum PendingRule {
    Query {
        query: SpjQuery,
        param_fields: Vec<String>,
    },
    Project {
        fields: Vec<String>,
    },
}

impl AtgBuilder {
    /// Declares the semantic attribute of `ty` with named fields.
    pub fn attr(&mut self, ty: &str, fields: &[&str]) -> &mut Self {
        self.attrs.insert(
            ty.to_owned(),
            fields.iter().map(|s| s.to_string()).collect(),
        );
        self
    }

    /// Adds a query rule `$child ← query($parent.param_fields…)`.
    pub fn rule_query(
        &mut self,
        parent: &str,
        child: &str,
        query: SpjQuery,
        param_fields: &[&str],
    ) -> &mut Self {
        self.rules.push((
            parent.to_owned(),
            child.to_owned(),
            PendingRule::Query {
                query,
                param_fields: param_fields.iter().map(|s| s.to_string()).collect(),
            },
        ));
        self
    }

    /// Adds a projection rule `$child = $parent.fields…`.
    pub fn rule_project(&mut self, parent: &str, child: &str, fields: &[&str]) -> &mut Self {
        self.rules.push((
            parent.to_owned(),
            child.to_owned(),
            PendingRule::Project {
                fields: fields.iter().map(|s| s.to_string()).collect(),
            },
        ));
        self
    }

    /// Validates and produces the grammar. `provider` supplies the base
    /// relation schemas.
    pub fn build(&self, provider: &impl SchemaProvider) -> Result<Atg, AtgError> {
        let dtd = self.dtd.clone();
        let n = dtd.n_types();
        let mut attr_names: Vec<Vec<String>> = vec![Vec::new(); n];
        for (tyname, fields) in &self.attrs {
            let ty = dtd
                .type_id(tyname)
                .ok_or_else(|| AtgError::UnknownType(tyname.clone()))?;
            if fields.iter().any(|f| f == UNIT_COLUMN) {
                return Err(AtgError::AttrMismatch {
                    ty: tyname.clone(),
                    detail: format!("the field name `{UNIT_COLUMN}` is reserved"),
                });
            }
            attr_names[ty.index()] = fields.clone();
        }

        // Resolve rules, collect base schemas.
        let mut rules: BTreeMap<(TypeId, TypeId), RuleBody> = BTreeMap::new();
        let mut base_schemas: Vec<TableSchema> = Vec::new();
        for (pname, cname, pending) in &self.rules {
            let parent = dtd
                .type_id(pname)
                .ok_or_else(|| AtgError::UnknownType(pname.clone()))?;
            let child = dtd
                .type_id(cname)
                .ok_or_else(|| AtgError::UnknownType(cname.clone()))?;
            if !dtd.children_of(parent).contains(&child) {
                return Err(AtgError::MissingRule {
                    parent: pname.clone(),
                    child: format!("{cname} (not a child type of {pname})"),
                });
            }
            let pfields = &attr_names[parent.index()];
            let body = match pending {
                PendingRule::Project { fields } => {
                    let idxs = fields
                        .iter()
                        .map(|f| {
                            pfields.iter().position(|pf| pf == f).ok_or_else(|| {
                                AtgError::UnknownAttrField {
                                    ty: pname.clone(),
                                    field: f.clone(),
                                }
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    RuleBody::Project { fields: idxs }
                }
                PendingRule::Query {
                    query,
                    param_fields,
                } => {
                    let idxs = param_fields
                        .iter()
                        .map(|f| {
                            pfields.iter().position(|pf| pf == f).ok_or_else(|| {
                                AtgError::UnknownAttrField {
                                    ty: pname.clone(),
                                    field: f.clone(),
                                }
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    if idxs.len() != query.n_params() {
                        return Err(AtgError::AttrMismatch {
                            ty: pname.clone(),
                            detail: format!(
                                "rule query `{}` expects {} params, {} fields given",
                                query.name(),
                                query.n_params(),
                                idxs.len()
                            ),
                        });
                    }
                    query.validate(provider)?;
                    for tr in query.from() {
                        let schema = provider
                            .schema_of(&tr.table)
                            .ok_or_else(|| RelError::UnknownTable(tr.table.clone()))?;
                        if !base_schemas.iter().any(|s| s.name() == tr.table) {
                            base_schemas.push(schema.clone());
                        }
                    }
                    if !query_is_key_preserving(query, provider)? {
                        return Err(AtgError::NotKeyPreserving {
                            parent: pname.clone(),
                            child: cname.clone(),
                        });
                    }
                    RuleBody::Query {
                        plan: compile_rule(query, &idxs, pfields.len(), provider)?,
                        query: query.clone(),
                        param_fields: idxs,
                    }
                }
            };
            if rules.insert((parent, child), body).is_some() {
                return Err(AtgError::DuplicateRule {
                    parent: pname.clone(),
                    child: cname.clone(),
                });
            }
        }

        // Infer attribute types by propagation from the root and check
        // consistency against every producing rule.
        let mut attr_types: Vec<Option<Vec<ValueType>>> = vec![None; n];
        attr_types[dtd.root().index()] = Some(Vec::new());
        if !attr_names[dtd.root().index()].is_empty() {
            return Err(AtgError::AttrMismatch {
                ty: dtd.name(dtd.root()).to_owned(),
                detail: "root attribute must be empty".into(),
            });
        }
        let mut work = vec![dtd.root()];
        while let Some(parent) = work.pop() {
            let ptypes = attr_types[parent.index()]
                .clone()
                .expect("set before queueing");
            for &child in dtd.children_of(parent) {
                let Some(rule) = rules.get(&(parent, child)) else {
                    return Err(AtgError::MissingRule {
                        parent: dtd.name(parent).to_owned(),
                        child: dtd.name(child).to_owned(),
                    });
                };
                let ctypes: Vec<ValueType> = match rule {
                    RuleBody::Project { fields } => {
                        let mut out = Vec::with_capacity(fields.len());
                        for &fi in fields {
                            let Some(t) = ptypes.get(fi) else {
                                return Err(AtgError::AttrMismatch {
                                    ty: dtd.name(parent).to_owned(),
                                    detail: format!("projection field {fi} out of range"),
                                });
                            };
                            out.push(*t);
                        }
                        out
                    }
                    RuleBody::Query {
                        query,
                        param_fields,
                        ..
                    } => {
                        for &pf in param_fields {
                            if pf >= ptypes.len() {
                                return Err(AtgError::AttrMismatch {
                                    ty: dtd.name(parent).to_owned(),
                                    detail: format!("param field {pf} out of range"),
                                });
                            }
                        }
                        query.out_types(provider)?
                    }
                };
                if ctypes.len() != attr_names[child.index()].len() {
                    return Err(AtgError::AttrMismatch {
                        ty: dtd.name(child).to_owned(),
                        detail: format!(
                            "rule produces {} fields but attribute declares {}",
                            ctypes.len(),
                            attr_names[child.index()].len()
                        ),
                    });
                }
                match &attr_types[child.index()] {
                    None => {
                        attr_types[child.index()] = Some(ctypes);
                        work.push(child);
                    }
                    Some(existing) if *existing == ctypes => {}
                    Some(_) => {
                        return Err(AtgError::AttrMismatch {
                            ty: dtd.name(child).to_owned(),
                            detail: "conflicting attribute types from different rules".into(),
                        });
                    }
                }
            }
        }

        let attr_types: Vec<Vec<ValueType>> = attr_types
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect();
        let rules = dtd
            .types()
            .map(|parent| {
                let children = dtd.children_of(parent);
                let first = |&(k, c): &(usize, &TypeId)| !children[..k].contains(c);
                let named = children.iter().enumerate().filter(first);
                named
                    .filter_map(|(_, &child)| Some((child, rules.remove(&(parent, child))?)))
                    .collect()
            })
            .collect();
        Ok(Atg {
            dtd,
            attr_names,
            attr_types,
            rules,
            base_schemas,
        })
    }
}

/// Compiles a rule query to run on the parent attribute directly: parameter
/// `i` becomes parameter `param_fields[i]` of a query over all `parent_arity`
/// fields of `$parent`.
fn compile_rule(
    query: &SpjQuery,
    param_fields: &[usize],
    parent_arity: usize,
    provider: &impl SchemaProvider,
) -> RelResult<SpjPlan> {
    let by_field = |o: &Operand| match o {
        Operand::Param(i) => Operand::Param(param_fields[*i]),
        other => other.clone(),
    };
    let predicates = query
        .predicates()
        .iter()
        .map(|p| EqPred {
            left: by_field(&p.left),
            right: by_field(&p.right),
        })
        .collect();
    let over_parent = SpjQuery::from_parts(
        query.name(),
        query.from().to_vec(),
        predicates,
        query.projection().to_vec(),
        query.out_names().to_vec(),
        parent_arity,
        provider,
    )?;
    SpjPlan::compile(&over_parent, provider)
}

/// Generalized key preservation for a parameterized rule query: every FROM
/// entry's key columns must be *determined* — in an equality class containing
/// a projected column, a parameter, or a constant.
fn query_is_key_preserving(query: &SpjQuery, provider: &impl SchemaProvider) -> RelResult<bool> {
    let closure = query.eq_closure(provider)?;
    let mut determined = vec![false; closure.reps.len()];
    for c in query.projection() {
        determined[closure.rep(*c)] = true;
    }
    for p in query.predicates() {
        match (&p.left, &p.right) {
            (Operand::Col(c), Operand::Const(_))
            | (Operand::Const(_), Operand::Col(c))
            | (Operand::Col(c), Operand::Param(_))
            | (Operand::Param(_), Operand::Col(c)) => determined[closure.rep(*c)] = true,
            _ => {}
        }
    }
    for (rel, tr) in query.from().iter().enumerate() {
        let schema = provider.schema_of(&tr.table).expect("checked above");
        if schema
            .key()
            .iter()
            .any(|&col| !determined[closure.rep(ColRef { rel, col })])
        {
            return Ok(false);
        }
    }
    Ok(true)
}
