//! Table schemas: typed, named columns with a designated primary key.

use crate::error::{RelError, RelResult};
use crate::tuple::Tuple;
use crate::value::{Domain, Value, ValueType};

/// A single column: name, type, and value domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name, unique within the table.
    pub name: String,
    /// Column type.
    pub ty: ValueType,
    /// Value domain (finite domains matter for insertion translation, §4.3).
    pub domain: Domain,
}

impl ColumnDef {
    /// A column over an infinite domain.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            domain: Domain::Infinite,
        }
    }

    /// A column over an explicitly finite domain.
    pub fn with_domain(name: impl Into<String>, ty: ValueType, domain: Domain) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            domain,
        }
    }
}

/// The schema of a base relation: ordered columns plus primary-key positions.
///
/// Every relation in the paper has a primary key (keys are underlined in the
/// schemas of Example 1 and §5); key preservation (§4.1) is defined in terms
/// of these keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    name: String,
    columns: Vec<ColumnDef>,
    key: Vec<usize>,
}

impl TableSchema {
    /// Creates a schema. `key` lists the positions of primary-key columns.
    ///
    /// # Panics
    /// Panics if `key` is empty, out of range, or contains duplicates, or if
    /// column names collide — these are programming errors in schema
    /// definitions, not runtime conditions.
    pub fn new(name: impl Into<String>, mut columns: Vec<ColumnDef>, key: Vec<usize>) -> Self {
        let name = name.into();
        // A schema lives as long as its table: no builder's slack with it.
        columns.shrink_to_fit();
        columns.iter_mut().for_each(|c| c.name.shrink_to_fit());
        assert!(!key.is_empty(), "table `{name}` must have a primary key");
        let mut seen_key = std::collections::BTreeSet::new();
        for &k in &key {
            assert!(k < columns.len(), "key column {k} out of range in `{name}`");
            assert!(seen_key.insert(k), "duplicate key column {k} in `{name}`");
        }
        let mut seen_names = std::collections::BTreeSet::new();
        for c in &columns {
            assert!(
                seen_names.insert(c.name.clone()),
                "duplicate column `{}` in `{name}`",
                c.name
            );
        }
        TableSchema { name, columns, key }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered column definitions.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Positions of the primary-key columns.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// Resolves a column name to its position.
    pub fn col_index(&self, name: &str) -> RelResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelError::UnknownColumn {
                table: self.name.clone(),
                column: name.into(),
            })
    }

    /// Extracts the primary-key values of a tuple (assumed schema-valid).
    /// A key of every column in order shares the row's storage instead of
    /// copying it.
    pub fn key_of(&self, tuple: &Tuple) -> Tuple {
        if self.key.iter().copied().eq(0..self.columns.len()) {
            return tuple.clone();
        }
        Tuple::from_values(self.key.iter().map(|&i| tuple[i].clone()))
    }

    /// Checks a tuple against arity, column types, and domains.
    pub fn check_tuple(&self, tuple: &Tuple) -> RelResult<()> {
        if tuple.arity() != self.arity() {
            return Err(RelError::ArityMismatch {
                table: self.name.clone(),
                expected: self.arity(),
                got: tuple.arity(),
            });
        }
        for (v, c) in tuple.values().iter().zip(&self.columns) {
            if v.value_type() != c.ty {
                return Err(RelError::TypeMismatch {
                    table: self.name.clone(),
                    column: c.name.clone(),
                });
            }
            if !c.domain.contains(v) {
                return Err(RelError::DomainViolation {
                    table: self.name.clone(),
                    column: c.name.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Builder-style helper: `schema("course").col_int("cno").col_str("title").key(&["cno"])`.
pub struct SchemaBuilder {
    name: String,
    columns: Vec<ColumnDef>,
}

/// Starts building a [`TableSchema`].
pub fn schema(name: impl Into<String>) -> SchemaBuilder {
    SchemaBuilder {
        name: name.into(),
        columns: Vec::new(),
    }
}

impl SchemaBuilder {
    /// Adds an integer column over an infinite domain.
    pub fn col_int(mut self, name: impl Into<String>) -> Self {
        self.columns.push(ColumnDef::new(name, ValueType::Int));
        self
    }

    /// Adds a string column over an infinite domain.
    pub fn col_str(mut self, name: impl Into<String>) -> Self {
        self.columns.push(ColumnDef::new(name, ValueType::Str));
        self
    }

    /// Adds a column with an explicit finite domain.
    pub fn col_finite(
        mut self,
        name: impl Into<String>,
        ty: ValueType,
        values: Vec<Value>,
    ) -> Self {
        self.columns
            .push(ColumnDef::with_domain(name, ty, Domain::Finite(values)));
        self
    }

    /// Finishes the schema, naming the primary-key columns.
    ///
    /// # Panics
    /// Panics if a key column name is unknown (schema definitions are static).
    pub fn key(self, key_cols: &[&str]) -> TableSchema {
        let key = key_cols
            .iter()
            .map(|k| {
                self.columns
                    .iter()
                    .position(|c| c.name == *k)
                    .unwrap_or_else(|| panic!("unknown key column `{k}` in `{}`", self.name))
            })
            .collect();
        TableSchema::new(self.name, self.columns, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn course() -> TableSchema {
        schema("course")
            .col_str("cno")
            .col_str("title")
            .col_str("dept")
            .key(&["cno"])
    }

    #[test]
    fn builder_produces_expected_schema() {
        let s = course();
        assert_eq!(s.name(), "course");
        assert_eq!(s.arity(), 3);
        assert_eq!(s.key(), &[0]);
    }

    #[test]
    fn col_index_resolves_and_errors() {
        let s = course();
        assert_eq!(s.col_index("title").unwrap(), 1);
        assert!(matches!(
            s.col_index("nope"),
            Err(RelError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn key_of_extracts_key_values() {
        let s = schema("enroll")
            .col_str("ssn")
            .col_str("cno")
            .key(&["ssn", "cno"]);
        let t = Tuple::from_values([Value::from("s1"), Value::from("c1")]);
        assert_eq!(
            s.key_of(&t).values(),
            &[Value::from("s1"), Value::from("c1")]
        );
    }

    #[test]
    fn check_tuple_validates_arity_and_types() {
        let s = course();
        let ok = Tuple::from_values([Value::from("c1"), Value::from("t"), Value::from("CS")]);
        assert!(s.check_tuple(&ok).is_ok());
        let short = Tuple::from_values([Value::from("c1")]);
        assert!(matches!(
            s.check_tuple(&short),
            Err(RelError::ArityMismatch { .. })
        ));
        let wrong = Tuple::from_values([Value::Int(1), Value::from("t"), Value::from("CS")]);
        assert!(matches!(
            s.check_tuple(&wrong),
            Err(RelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn check_tuple_validates_domains() {
        let s = schema("flags")
            .col_str("id")
            .col_finite("state", ValueType::Int, vec![Value::Int(0), Value::Int(1)])
            .key(&["id"]);
        let ok = Tuple::from_values([Value::from("a"), Value::Int(1)]);
        assert!(s.check_tuple(&ok).is_ok());
        let bad = Tuple::from_values([Value::from("a"), Value::Int(9)]);
        assert!(matches!(
            s.check_tuple(&bad),
            Err(RelError::DomainViolation { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "primary key")]
    fn schema_requires_key() {
        TableSchema::new("t", vec![ColumnDef::new("a", ValueType::Int)], vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn schema_rejects_duplicate_columns() {
        schema("t").col_int("a").col_int("a").key(&["a"]);
    }
}
