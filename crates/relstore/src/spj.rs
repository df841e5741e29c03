//! Select-project-join (SPJ) queries with parameters and key preservation.
//!
//! Every ATG rule (§2.2) and every edge-view definition `Q_edge_A_B` (§2.3)
//! is an SPJ query: a cross product of base relations, a conjunction of
//! equality predicates (column = column, column = constant, column =
//! parameter), and a projection. The *key preservation* condition of §4.1 —
//! the primary keys of all base relations involved in `Q` are included in
//! `Q`'s projection — is checked and, when needed, established here.

use crate::database::Database;
use crate::error::{RelError, RelResult};
use crate::schema::TableSchema;
use crate::value::{Value, ValueType};

/// Anything that can resolve table names to schemas.
pub trait SchemaProvider {
    /// The schema of `table`, if it exists.
    fn schema_of(&self, table: &str) -> Option<&TableSchema>;
}

impl SchemaProvider for Database {
    fn schema_of(&self, table: &str) -> Option<&TableSchema> {
        self.table(table).ok().map(|t| t.schema())
    }
}

impl SchemaProvider for Vec<TableSchema> {
    fn schema_of(&self, table: &str) -> Option<&TableSchema> {
        self.iter().find(|s| s.name() == table)
    }
}

/// A reference to a column of one of the query's FROM entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Index into [`SpjQuery::from`].
    pub rel: usize,
    /// Column position within that relation.
    pub col: usize,
}

/// One side of an equality predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// A column of a FROM entry.
    Col(ColRef),
    /// A literal constant.
    Const(Value),
    /// A query parameter (the `$A` semantic attribute fields of ATG rules).
    Param(usize),
}

/// An equality predicate `left = right`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqPred {
    /// Left operand.
    pub left: Operand,
    /// Right operand.
    pub right: Operand,
}

/// A FROM entry: a base table under an alias (renamings allowed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Base table name.
    pub table: String,
    /// Alias, unique within the query.
    pub alias: String,
}

/// An SPJ query `π_P (σ_C (R₁ × … × Rₖ))`, possibly parameterized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpjQuery {
    name: String,
    from: Vec<TableRef>,
    predicates: Vec<EqPred>,
    projection: Vec<ColRef>,
    out_names: Vec<String>,
    n_params: usize,
}

/// ```
/// use rxview_relstore::{schema, Database, SpjQuery, tuple};
/// let mut db = Database::new();
/// db.create_table(schema("course").col_str("cno").col_str("dept").key(&["cno"])).unwrap();
/// db.insert("course", tuple!["CS650", "CS"]).unwrap();
/// let q = SpjQuery::builder("cs")
///     .from("course", "c")
///     .where_col_eq_const(("c", "dept"), "CS")
///     .project(("c", "cno"), "cno")
///     .build(&db)
///     .unwrap();
/// assert!(q.is_key_preserving(&db).unwrap());
/// assert_eq!(rxview_relstore::eval_spj(&db, &q, &[]).unwrap(), vec![tuple!["CS650"]]);
/// ```
impl SpjQuery {
    /// Constructs a query directly from resolved parts, validating against
    /// `provider`. Used by the ATG layer to derive edge-view queries (§2.3)
    /// programmatically.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        name: impl Into<String>,
        from: Vec<TableRef>,
        predicates: Vec<EqPred>,
        projection: Vec<ColRef>,
        out_names: Vec<String>,
        n_params: usize,
        provider: &impl SchemaProvider,
    ) -> RelResult<SpjQuery> {
        let q = SpjQuery {
            name: name.into(),
            from,
            predicates,
            projection,
            out_names,
            n_params,
        };
        q.validate(provider)?;
        Ok(q)
    }

    /// Starts building a query with a diagnostic name.
    pub fn builder(name: impl Into<String>) -> SpjBuilder {
        SpjBuilder {
            name: name.into(),
            from: Vec::new(),
            predicates: Vec::new(),
            projection: Vec::new(),
            n_params: 0,
        }
    }

    /// The query's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// FROM entries in order.
    pub fn from(&self) -> &[TableRef] {
        &self.from
    }

    /// The conjunction of equality predicates.
    pub fn predicates(&self) -> &[EqPred] {
        &self.predicates
    }

    /// Projected columns in output order.
    pub fn projection(&self) -> &[ColRef] {
        &self.projection
    }

    /// Output column names.
    pub fn out_names(&self) -> &[String] {
        &self.out_names
    }

    /// Number of parameters the query expects.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Output column types, resolved against the provider.
    pub fn out_types(&self, provider: &impl SchemaProvider) -> RelResult<Vec<ValueType>> {
        self.projection
            .iter()
            .map(|c| {
                let tr = &self.from[c.rel];
                let schema = provider
                    .schema_of(&tr.table)
                    .ok_or_else(|| RelError::UnknownTable(tr.table.clone()))?;
                Ok(schema.columns()[c.col].ty)
            })
            .collect()
    }

    /// Finds the output position of a given source column, if projected.
    pub fn output_position(&self, col: ColRef) -> Option<usize> {
        self.projection.iter().position(|c| *c == col)
    }

    /// Key preservation (§4.1): for each FROM entry `Rᵢ`, the primary key of
    /// `Rᵢ` is included in the projection.
    pub fn is_key_preserving(&self, provider: &impl SchemaProvider) -> RelResult<bool> {
        Ok(self.source_key_positions(provider)?.is_some())
    }

    /// For each FROM entry, the output positions holding that entry's primary
    /// key, or `None` if some key column is not projected.
    pub fn source_key_positions(
        &self,
        provider: &impl SchemaProvider,
    ) -> RelResult<Option<Vec<Vec<usize>>>> {
        let mut result = Vec::with_capacity(self.from.len());
        for (rel, tr) in self.from.iter().enumerate() {
            let schema = provider
                .schema_of(&tr.table)
                .ok_or_else(|| RelError::UnknownTable(tr.table.clone()))?;
            let mut positions = Vec::with_capacity(schema.key().len());
            for &kc in schema.key() {
                match self.output_position(ColRef { rel, col: kc }) {
                    Some(p) => positions.push(p),
                    None => return Ok(None),
                }
            }
            result.push(positions);
        }
        Ok(Some(result))
    }

    /// The equality closure of the query's `Col = Col` predicates — the one
    /// static fact §4.1–§4.3 derive everything else from: key preservation,
    /// the candidate sources of Algorithm delete, the tuple templates and the
    /// side-effect join of Algorithm insert. Unions run in predicate order,
    /// each linking the left operand's root under the right one's, so the
    /// representatives are the ones every reference derivation computes.
    pub fn eq_closure(&self, provider: &impl SchemaProvider) -> RelResult<EqClosure> {
        let mut offsets = Vec::with_capacity(self.from.len());
        let mut total = 0usize;
        for tr in &self.from {
            offsets.push(total);
            total += provider
                .schema_of(&tr.table)
                .ok_or_else(|| RelError::UnknownTable(tr.table.clone()))?
                .arity();
        }
        let idx = |c: ColRef| offsets[c.rel] + c.col;
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for p in &self.predicates {
            if let (Operand::Col(a), Operand::Col(b)) = (&p.left, &p.right) {
                let (ra, rb) = (find(&mut parent, idx(*a)), find(&mut parent, idx(*b)));
                parent[ra] = rb;
            }
        }
        let reps = (0..total).map(|i| find(&mut parent, i)).collect();
        Ok(EqClosure { offsets, reps })
    }

    /// Extends the projection with any missing primary-key columns, making
    /// the query key-preserving (§4.1: "every SPJ query in the definition of
    /// an ATG view σ can be made key-preserving by extending its
    /// projection-attribute list"). Added columns are named
    /// `__kp_<alias>_<col>`. Returns the number of columns added.
    pub fn make_key_preserving(&mut self, provider: &impl SchemaProvider) -> RelResult<usize> {
        let mut added = 0;
        for (rel, tr) in self.from.iter().enumerate() {
            let schema = provider
                .schema_of(&tr.table)
                .ok_or_else(|| RelError::UnknownTable(tr.table.clone()))?;
            for &kc in schema.key() {
                let col = ColRef { rel, col: kc };
                if self.output_position(col).is_none() {
                    self.projection.push(col);
                    self.out_names
                        .push(format!("__kp_{}_{}", tr.alias, schema.columns()[kc].name));
                    added += 1;
                }
            }
        }
        Ok(added)
    }

    /// Validates internal consistency against a provider (tables exist,
    /// column indices in range, params bound below `n_params`).
    pub fn validate(&self, provider: &impl SchemaProvider) -> RelResult<()> {
        if self.from.is_empty() {
            return Err(RelError::MalformedQuery(format!(
                "{}: empty FROM",
                self.name
            )));
        }
        let mut aliases = std::collections::BTreeSet::new();
        for tr in &self.from {
            if !aliases.insert(&tr.alias) {
                return Err(RelError::MalformedQuery(format!(
                    "{}: duplicate alias `{}`",
                    self.name, tr.alias
                )));
            }
            if provider.schema_of(&tr.table).is_none() {
                return Err(RelError::UnknownTable(tr.table.clone()));
            }
        }
        let check_col = |c: &ColRef| -> RelResult<()> {
            let tr = self.from.get(c.rel).ok_or_else(|| {
                RelError::MalformedQuery(format!("{}: bad relation index {}", self.name, c.rel))
            })?;
            let schema = provider.schema_of(&tr.table).expect("checked above");
            if c.col >= schema.arity() {
                return Err(RelError::MalformedQuery(format!(
                    "{}: column {} out of range for `{}`",
                    self.name, c.col, tr.table
                )));
            }
            Ok(())
        };
        let check_operand = |o: &Operand| -> RelResult<()> {
            match o {
                Operand::Col(c) => check_col(c),
                Operand::Const(_) => Ok(()),
                Operand::Param(i) if *i < self.n_params => Ok(()),
                Operand::Param(i) => Err(RelError::UnboundParam(*i)),
            }
        };
        for p in &self.predicates {
            check_operand(&p.left)?;
            check_operand(&p.right)?;
        }
        for c in &self.projection {
            check_col(c)?;
        }
        Ok(())
    }
}

/// The equality classes of an [`SpjQuery`]'s columns
/// ([`SpjQuery::eq_closure`]), the columns of its FROM entries numbered
/// flat in FROM order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqClosure {
    /// Flat number of each FROM entry's first column.
    pub offsets: Vec<usize>,
    /// Class representative per flat column.
    pub reps: Vec<usize>,
}

impl EqClosure {
    /// The representative of a column's class.
    pub fn rep(&self, c: ColRef) -> usize {
        self.reps[self.offsets[c.rel] + c.col]
    }
}

/// Builder for [`SpjQuery`]; resolves alias/column names at `build` time.
pub struct SpjBuilder {
    name: String,
    from: Vec<(String, String)>,
    predicates: Vec<(NamedOperand, NamedOperand)>,
    projection: Vec<((String, String), String)>,
    n_params: usize,
}

enum NamedOperand {
    Col(String, String),
    Const(Value),
    Param(usize),
}

impl SpjBuilder {
    /// Adds `table AS alias` to the FROM clause.
    pub fn from(mut self, table: impl Into<String>, alias: impl Into<String>) -> Self {
        self.from.push((table.into(), alias.into()));
        self
    }

    /// Adds predicate `alias.col = other_alias.other_col`.
    pub fn where_col_eq_col(mut self, left: (&str, &str), right: (&str, &str)) -> Self {
        self.predicates.push((
            NamedOperand::Col(left.0.into(), left.1.into()),
            NamedOperand::Col(right.0.into(), right.1.into()),
        ));
        self
    }

    /// Adds predicate `alias.col = constant`.
    pub fn where_col_eq_const(mut self, col: (&str, &str), value: impl Into<Value>) -> Self {
        self.predicates.push((
            NamedOperand::Col(col.0.into(), col.1.into()),
            NamedOperand::Const(value.into()),
        ));
        self
    }

    /// Adds predicate `alias.col = $param`.
    pub fn where_col_eq_param(mut self, col: (&str, &str), param: usize) -> Self {
        self.n_params = self.n_params.max(param + 1);
        self.predicates.push((
            NamedOperand::Col(col.0.into(), col.1.into()),
            NamedOperand::Param(param),
        ));
        self
    }

    /// Projects `alias.col` under output name `out_name`.
    pub fn project(mut self, col: (&str, &str), out_name: impl Into<String>) -> Self {
        self.projection
            .push(((col.0.into(), col.1.into()), out_name.into()));
        self
    }

    /// Declares the number of parameters explicitly (otherwise inferred).
    pub fn params(mut self, n: usize) -> Self {
        self.n_params = self.n_params.max(n);
        self
    }

    /// Resolves names and produces the query.
    pub fn build(self, provider: &impl SchemaProvider) -> RelResult<SpjQuery> {
        let from: Vec<TableRef> = self
            .from
            .iter()
            .map(|(t, a)| TableRef {
                table: t.clone(),
                alias: a.clone(),
            })
            .collect();
        let resolve = |alias: &str, col: &str| -> RelResult<ColRef> {
            let rel = from
                .iter()
                .position(|tr| tr.alias == alias)
                .ok_or_else(|| {
                    RelError::MalformedQuery(format!("{}: unknown alias `{alias}`", self.name))
                })?;
            let schema = provider
                .schema_of(&from[rel].table)
                .ok_or_else(|| RelError::UnknownTable(from[rel].table.clone()))?;
            Ok(ColRef {
                rel,
                col: schema.col_index(col)?,
            })
        };
        let mut predicates = Vec::with_capacity(self.predicates.len());
        for (l, r) in &self.predicates {
            let conv = |o: &NamedOperand| -> RelResult<Operand> {
                Ok(match o {
                    NamedOperand::Col(a, c) => Operand::Col(resolve(a, c)?),
                    NamedOperand::Const(v) => Operand::Const(v.clone()),
                    NamedOperand::Param(i) => Operand::Param(*i),
                })
            };
            predicates.push(EqPred {
                left: conv(l)?,
                right: conv(r)?,
            });
        }
        let mut projection = Vec::with_capacity(self.projection.len());
        let mut out_names = Vec::with_capacity(self.projection.len());
        for ((a, c), out) in &self.projection {
            projection.push(resolve(a, c)?);
            out_names.push(out.clone());
        }
        let q = SpjQuery {
            name: self.name,
            from,
            predicates,
            projection,
            out_names,
            n_params: self.n_params,
        };
        q.validate(provider)?;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::schema;

    fn schemas() -> Vec<TableSchema> {
        vec![
            schema("course")
                .col_str("cno")
                .col_str("title")
                .col_str("dept")
                .key(&["cno"]),
            schema("prereq")
                .col_str("cno1")
                .col_str("cno2")
                .key(&["cno1", "cno2"]),
        ]
    }

    fn q_prereq_course(provider: &Vec<TableSchema>) -> SpjQuery {
        SpjQuery::builder("Qprereq_course")
            .from("prereq", "p")
            .from("course", "c")
            .where_col_eq_param(("p", "cno1"), 0)
            .where_col_eq_col(("p", "cno2"), ("c", "cno"))
            .project(("c", "cno"), "cno")
            .project(("c", "title"), "title")
            .build(provider)
            .unwrap()
    }

    #[test]
    fn builder_resolves_names() {
        let s = schemas();
        let q = q_prereq_course(&s);
        assert_eq!(q.from().len(), 2);
        assert_eq!(q.n_params(), 1);
        assert_eq!(q.out_names(), &["cno".to_string(), "title".to_string()]);
        assert_eq!(
            q.out_types(&s).unwrap(),
            vec![ValueType::Str, ValueType::Str]
        );
    }

    #[test]
    fn unknown_alias_is_error() {
        let s = schemas();
        let r = SpjQuery::builder("bad")
            .from("course", "c")
            .project(("x", "cno"), "cno")
            .build(&s);
        assert!(matches!(r, Err(RelError::MalformedQuery(_))));
    }

    #[test]
    fn key_preservation_detection() {
        let s = schemas();
        let q = q_prereq_course(&s);
        // `prereq`'s key (cno1,cno2) is not projected.
        assert!(!q.is_key_preserving(&s).unwrap());
        let kp = SpjQuery::builder("kp")
            .from("course", "c")
            .where_col_eq_const(("c", "dept"), "CS")
            .project(("c", "cno"), "cno")
            .project(("c", "title"), "title")
            .build(&s)
            .unwrap();
        assert!(kp.is_key_preserving(&s).unwrap());
    }

    #[test]
    fn make_key_preserving_extends_projection() {
        let s = schemas();
        let mut q = q_prereq_course(&s);
        let added = q.make_key_preserving(&s).unwrap();
        // prereq contributes cno1+cno2; course's key cno is already projected.
        assert_eq!(added, 2);
        assert!(q.is_key_preserving(&s).unwrap());
        let positions = q.source_key_positions(&s).unwrap().unwrap();
        assert_eq!(positions.len(), 2);
        assert_eq!(positions[1], vec![0]); // course.cno at output 0
    }

    #[test]
    fn make_key_preserving_is_idempotent() {
        let s = schemas();
        let mut q = q_prereq_course(&s);
        q.make_key_preserving(&s).unwrap();
        assert_eq!(q.make_key_preserving(&s).unwrap(), 0);
    }

    #[test]
    fn duplicate_alias_rejected() {
        let s = schemas();
        let r = SpjQuery::builder("dup")
            .from("course", "c")
            .from("course", "c")
            .project(("c", "cno"), "cno")
            .build(&s);
        assert!(matches!(r, Err(RelError::MalformedQuery(_))));
    }

    #[test]
    fn self_join_with_distinct_aliases_allowed() {
        let s = schemas();
        let q = SpjQuery::builder("selfjoin")
            .from("course", "c1")
            .from("course", "c2")
            .where_col_eq_col(("c1", "cno"), ("c2", "cno"))
            .project(("c1", "cno"), "cno1")
            .project(("c2", "cno"), "cno2")
            .build(&s)
            .unwrap();
        assert_eq!(q.from().len(), 2);
        assert!(q.is_key_preserving(&s).unwrap()); // each alias's key projected separately
    }
}
