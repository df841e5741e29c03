//! Error type for the relational engine.

use std::fmt;

/// Errors raised by schema, table, and query operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum RelError {
    /// A table name was not found in the database.
    UnknownTable(String),
    /// A column name was not found in a table schema.
    UnknownColumn { table: String, column: String },
    /// A tuple's arity does not match the schema.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    /// A tuple value's type does not match the column type.
    TypeMismatch { table: String, column: String },
    /// A value is outside the declared column domain.
    DomainViolation { table: String, column: String },
    /// Inserting a tuple whose primary key already exists (with a different payload).
    DuplicateKey { table: String },
    /// Deleting a tuple whose primary key does not exist.
    MissingKey { table: String },
    /// Rows handed to a bulk load are not in strictly ascending key order.
    UnsortedRows { table: String },
    /// A table with the same name already exists.
    TableExists(String),
    /// A query referenced a parameter index that was not bound.
    UnboundParam(usize),
    /// A query is not key-preserving but the operation requires it.
    NotKeyPreserving { query: String },
    /// A malformed query (bad column index, empty FROM, ...).
    MalformedQuery(String),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            RelError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            RelError::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(
                    f,
                    "arity mismatch for `{table}`: expected {expected} values, got {got}"
                )
            }
            RelError::TypeMismatch { table, column } => {
                write!(f, "type mismatch for `{table}.{column}`")
            }
            RelError::DomainViolation { table, column } => {
                write!(f, "value outside domain of `{table}.{column}`")
            }
            RelError::DuplicateKey { table } => {
                write!(f, "duplicate primary key in table `{table}`")
            }
            RelError::MissingKey { table } => {
                write!(f, "no tuple with the given primary key in table `{table}`")
            }
            RelError::UnsortedRows { table } => {
                write!(
                    f,
                    "rows for table `{table}` are not in ascending primary-key order"
                )
            }
            RelError::TableExists(t) => write!(f, "table `{t}` already exists"),
            RelError::UnboundParam(i) => write!(f, "query parameter ${i} is not bound"),
            RelError::NotKeyPreserving { query } => {
                write!(f, "query `{query}` is not key-preserving")
            }
            RelError::MalformedQuery(msg) => write!(f, "malformed query: {msg}"),
        }
    }
}

impl std::error::Error for RelError {}

/// Convenience alias for results in this crate.
pub type RelResult<T> = Result<T, RelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_table_names() {
        let e = RelError::UnknownTable("course".into());
        assert!(e.to_string().contains("course"));
        let e = RelError::UnknownColumn {
            table: "t".into(),
            column: "c".into(),
        };
        assert!(e.to_string().contains('c'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&RelError::MissingKey { table: "x".into() });
    }
}
