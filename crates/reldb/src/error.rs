//! Error type for the database substrate.

use crate::{RelationId, Value};
use std::fmt;

/// Everything that can go wrong when building schemas or mutating databases.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Schema construction failed; payload explains why.
    Schema(String),
    /// A relation name could not be resolved.
    UnknownRelation(String),
    /// A fact id does not denote a live fact.
    UnknownFact,
    /// Fact has the wrong number of values for its relation.
    Arity {
        /// Relation the fact was destined for.
        relation: String,
        /// Expected arity.
        expected: usize,
        /// Provided arity.
        got: usize,
    },
    /// A value does not conform to its attribute's declared type.
    TypeMismatch {
        /// Relation name.
        relation: String,
        /// Attribute name.
        attribute: String,
        /// The offending value.
        value: Value,
    },
    /// A key attribute is null.
    NullInKey {
        /// Relation name.
        relation: String,
        /// Attribute name.
        attribute: String,
    },
    /// `NaN` floats are rejected (they would break value indexing).
    NanValue {
        /// Relation name.
        relation: String,
        /// Attribute name.
        attribute: String,
    },
    /// Another live fact already has this key.
    DuplicateKey {
        /// Relation name.
        relation: String,
        /// The key values of the rejected fact.
        key: Vec<Value>,
    },
    /// A non-null FK tuple references no existing fact.
    FkViolation {
        /// The referencing relation.
        from: String,
        /// The referenced relation.
        to: String,
        /// The dangling reference values.
        values: Vec<Value>,
    },
    /// Deleting this fact would leave dangling references and cascade was
    /// not requested.
    WouldDangle {
        /// Relation of the fact whose deletion was rejected.
        relation: String,
        /// Number of facts still referencing it.
        referencing: usize,
    },
    /// Relation id out of range for this schema.
    BadRelationId(RelationId),
    /// Text (de)serialisation failure.
    Parse(String),
    /// Crash-recovery replay diverged from the journalled history (e.g. a
    /// replayed insert landed in a different slot than the log recorded).
    Replay(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Schema(msg) => write!(f, "schema error: {msg}"),
            DbError::UnknownRelation(name) => {
                write!(f, "unknown relation {name}")
            }
            DbError::UnknownFact => write!(f, "fact id does not denote a live fact"),
            DbError::Arity { relation, expected, got } => write!(
                f,
                "arity mismatch for {relation}: expected {expected} values, got {got}"
            ),
            DbError::TypeMismatch { relation, attribute, value } => write!(
                f,
                "type mismatch: value {value} is not valid for {relation}.{attribute}"
            ),
            DbError::NullInKey { relation, attribute } => {
                write!(f, "null in key attribute {relation}.{attribute}")
            }
            DbError::NanValue { relation, attribute } => {
                write!(f, "NaN value rejected for {relation}.{attribute}")
            }
            DbError::DuplicateKey { relation, key } => {
                let parts: Vec<String> = key.iter().map(std::string::ToString::to_string).collect();
                write!(f, "duplicate key ({}) in {relation}", parts.join(", "))
            }
            DbError::FkViolation { from, to, values } => {
                let parts: Vec<String> =
                    values.iter().map(std::string::ToString::to_string).collect();
                write!(
                    f,
                    "foreign-key violation: {from} references {to} with ({}) but no such fact exists",
                    parts.join(", ")
                )
            }
            DbError::WouldDangle { relation, referencing } => write!(
                f,
                "deleting this {relation} fact would dangle {referencing} reference(s); use cascade deletion"
            ),
            DbError::BadRelationId(id) => {
                write!(f, "relation id {:?} out of range", id)
            }
            DbError::Parse(msg) => write!(f, "parse error: {msg}"),
            DbError::Replay(msg) => write!(f, "replay divergence: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DbError::Arity {
            relation: "R".into(),
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        let e = DbError::DuplicateKey {
            relation: "R".into(),
            key: vec![Value::Int(1), Value::Text("x".into())],
        };
        assert!(e.to_string().contains("(1, x)"));
        let e = DbError::FkViolation {
            from: "R".into(),
            to: "S".into(),
            values: vec![Value::Text("s9".into())],
        };
        assert!(e.to_string().contains("no such fact"));
    }
}
