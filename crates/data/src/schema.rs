//! Relational schemas.

use crate::value::DataType;
use cv_common::hash::StableHasher;
use cv_common::{CvError, Result};
use std::fmt;
use std::sync::Arc;

/// A named, typed column in a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field { name: name.into(), dtype, nullable: true }
    }

    pub fn not_null(name: impl Into<String>, dtype: DataType) -> Field {
        Field { name: name.into(), dtype, nullable: false }
    }
}

/// An ordered list of fields. Field names are unique (case-sensitive);
/// planners disambiguate join collisions by prefixing before building one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

pub type SchemaRef = Arc<Schema>;

impl Schema {
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        let mut seen = cv_common::HashSet::default();
        for f in &fields {
            if !seen.insert(f.name.as_str()) {
                return Err(CvError::plan(format!("duplicate column name `{}`", f.name)));
            }
        }
        Ok(Schema { fields })
    }

    /// Build without the duplicate check — only for internal callers that
    /// guarantee uniqueness by construction.
    pub fn new_unchecked(fields: Vec<Field>) -> Schema {
        Schema { fields }
    }

    pub fn into_ref(self) -> SchemaRef {
        Arc::new(self)
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    pub fn field_by_name(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Concatenate two schemas (join output), erroring on name collisions.
    pub fn join(&self, other: &Schema) -> Result<Schema> {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// Project a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new_unchecked(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Hash the schema shape into a signature hasher.
    pub fn stable_hash(&self, h: &mut StableHasher) {
        h.write_u64(self.fields.len() as u64);
        for f in &self.fields {
            h.write_str(&f.name);
            h.write_u8(f.dtype.ordinal());
            h.write_bool(f.nullable);
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fld) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", fld.name, fld.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::not_null("c", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_by_name() {
        let s = s();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
        assert!(s.contains("c"));
        assert_eq!(s.field_by_name("c").unwrap().dtype, DataType::Float);
        assert!(!s.field_by_name("c").unwrap().nullable);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![Field::new("a", DataType::Int), Field::new("a", DataType::Str)])
            .unwrap_err();
        assert_eq!(err.kind(), "plan");
    }

    #[test]
    fn join_concatenates_and_detects_collisions() {
        let left = s();
        let right = Schema::new(vec![Field::new("d", DataType::Int)]).unwrap();
        let joined = left.join(&right).unwrap();
        assert_eq!(joined.len(), 4);
        assert_eq!(joined.index_of("d"), Some(3));
        assert!(left.join(&left).is_err());
    }

    #[test]
    fn project_selects_by_index() {
        let s = s();
        let p = s.project(&[2, 0]);
        assert_eq!(p.names(), vec!["c", "a"]);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(s().to_string(), "(a INT, b STRING, c FLOAT)");
    }

    #[test]
    fn stable_hash_distinguishes_schemas() {
        let mut h1 = StableHasher::new();
        s().stable_hash(&mut h1);
        let mut h2 = StableHasher::new();
        s().project(&[0, 1]).stable_hash(&mut h2);
        assert_ne!(h1.finish128(), h2.finish128());
    }
}
