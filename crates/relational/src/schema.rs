//! Schemas and column references.
//!
//! The paper works with relations `IS.R(A_1, …, A_n)` (Eq. 3) and view queries
//! referencing attributes as `R.A`. A [`ColumnRef`] is an optionally-qualified
//! attribute name; a [`Schema`] is an ordered list of typed, sized columns with
//! unambiguous lookup.

use std::fmt;

use crate::error::{Error, Result};
use crate::types::DataType;

/// An optionally qualified column reference, e.g. `R.A` or just `A`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Relation qualifier (alias or relation name), if any.
    pub qualifier: Option<String>,
    /// Attribute name.
    pub name: String,
}

impl ColumnRef {
    /// Builds an unqualified reference.
    #[must_use]
    pub fn bare(name: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Builds a qualified reference `qualifier.name`.
    #[must_use]
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Parses `"R.A"` into a qualified and `"A"` into a bare reference.
    #[must_use]
    pub fn parse(s: &str) -> ColumnRef {
        match s.split_once('.') {
            Some((q, n)) => ColumnRef::qualified(q, n),
            None => ColumnRef::bare(s),
        }
    }

    /// Whether this reference matches a column declared as
    /// `declared_qualifier.declared_name`.
    ///
    /// A bare reference matches on name alone; a qualified reference requires
    /// the qualifier to match as well.
    #[must_use]
    pub fn matches(&self, declared_qualifier: Option<&str>, declared_name: &str) -> bool {
        if self.name != declared_name {
            return false;
        }
        match (&self.qualifier, declared_qualifier) {
            (None, _) => true,
            (Some(q), Some(dq)) => q == dq,
            (Some(_), None) => false,
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// A column declaration: reference, type and byte size.
///
/// The byte size corresponds to the paper's `s_{R.A}` statistic (§6.1),
/// registered in the MKB and used by the transfer cost factor `CF_T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column identity within the schema.
    pub column: ColumnRef,
    /// Data type.
    pub ty: DataType,
    /// Storage / transfer size in bytes.
    pub byte_size: u32,
}

impl ColumnDef {
    /// Builds a column with the type's default byte size.
    #[must_use]
    pub fn new(column: ColumnRef, ty: DataType) -> ColumnDef {
        ColumnDef {
            column,
            ty,
            byte_size: ty.default_byte_size(),
        }
    }

    /// Builds a column with an explicit byte size.
    #[must_use]
    pub fn sized(column: ColumnRef, ty: DataType, byte_size: u32) -> ColumnDef {
        ColumnDef {
            column,
            ty,
            byte_size,
        }
    }
}

/// An ordered relation schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Builds a schema from column definitions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateColumn`] if two columns share the same
    /// qualified identity.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Schema> {
        for (i, c) in columns.iter().enumerate() {
            for other in &columns[..i] {
                if other.column == c.column {
                    return Err(Error::DuplicateColumn {
                        column: c.column.to_string(),
                    });
                }
            }
        }
        Ok(Schema { columns })
    }

    /// Convenience constructor: `(name, type)` pairs, all bare, default sizes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateColumn`] on repeated names.
    pub fn of(pairs: &[(&str, DataType)]) -> Result<Schema> {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| ColumnDef::new(ColumnRef::bare(*n), *t))
                .collect(),
        )
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The column definitions, in order.
    #[must_use]
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Total tuple width in bytes (the paper's `s_R`, §6.3: "sum of the length
    /// of attributes in bytes").
    #[must_use]
    pub fn tuple_byte_size(&self) -> u64 {
        self.columns.iter().map(|c| u64::from(c.byte_size)).sum()
    }

    /// Resolves a reference to a column index.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownColumn`] if nothing matches, [`Error::AmbiguousColumn`]
    /// if a bare name matches several columns. The `relation` argument is used
    /// only for error messages.
    pub fn resolve(&self, column: &ColumnRef, relation: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, c) in self.columns.iter().enumerate() {
            if column.matches(c.column.qualifier.as_deref(), &c.column.name) {
                if found.is_some() {
                    return Err(Error::AmbiguousColumn {
                        column: column.to_string(),
                        relation: relation.to_owned(),
                    });
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| Error::UnknownColumn {
            column: column.to_string(),
            relation: relation.to_owned(),
        })
    }

    /// Definition of the column at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds (internal indices only).
    #[must_use]
    pub fn column(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }

    /// Returns a new schema where every column is re-qualified with
    /// `qualifier` (used when a base relation enters a query under an alias).
    #[must_use]
    pub fn qualify(&self, qualifier: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| ColumnDef {
                    column: ColumnRef::qualified(qualifier, c.column.name.clone()),
                    ty: c.ty,
                    byte_size: c.byte_size,
                })
                .collect(),
        }
    }

    /// Returns a new schema with all qualifiers removed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateColumn`] if stripping qualifiers makes two
    /// columns collide.
    pub fn unqualify(&self) -> Result<Schema> {
        Schema::new(
            self.columns
                .iter()
                .map(|c| ColumnDef {
                    column: ColumnRef::bare(c.column.name.clone()),
                    ty: c.ty,
                    byte_size: c.byte_size,
                })
                .collect(),
        )
    }

    /// Concatenates two schemas (for joins / cartesian products).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DuplicateColumn`] on identity collisions.
    pub fn concat(&self, other: &Schema) -> Result<Schema> {
        let mut cols = self.columns.clone();
        cols.extend(other.columns.iter().cloned());
        Schema::new(cols)
    }

    /// Whether two schemas are union-compatible (same arity, same types, in
    /// order). Names may differ, mirroring positional set semantics.
    #[must_use]
    pub(crate) fn union_compatible(&self, other: &Schema) -> bool {
        self.arity() == other.arity()
            && self
                .columns
                .iter()
                .zip(other.columns.iter())
                .all(|(a, b)| a.ty == b.ty)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", c.column, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::of(&[("A", DataType::Int), ("B", DataType::Text)]).unwrap()
    }

    #[test]
    fn parse_column_ref() {
        assert_eq!(ColumnRef::parse("R.A"), ColumnRef::qualified("R", "A"));
        assert_eq!(ColumnRef::parse("A"), ColumnRef::bare("A"));
    }

    #[test]
    fn display_column_ref() {
        assert_eq!(ColumnRef::qualified("R", "A").to_string(), "R.A");
        assert_eq!(ColumnRef::bare("A").to_string(), "A");
    }

    #[test]
    fn resolve_bare() {
        let s = sample();
        assert_eq!(s.resolve(&ColumnRef::bare("B"), "R").unwrap(), 1);
    }

    #[test]
    fn resolve_qualified_against_qualified_schema() {
        let s = sample().qualify("R");
        assert_eq!(s.resolve(&ColumnRef::parse("R.A"), "R").unwrap(), 0);
        // Bare name still resolves when unique.
        assert_eq!(s.resolve(&ColumnRef::bare("A"), "R").unwrap(), 0);
    }

    #[test]
    fn resolve_wrong_qualifier_fails() {
        let s = sample().qualify("R");
        let e = s.resolve(&ColumnRef::parse("S.A"), "R").unwrap_err();
        assert!(matches!(e, Error::UnknownColumn { .. }));
    }

    #[test]
    fn ambiguous_bare_name() {
        let r = sample().qualify("R");
        let s = sample().qualify("S");
        let joined = r.concat(&s).unwrap();
        let e = joined.resolve(&ColumnRef::bare("A"), "RxS").unwrap_err();
        assert!(matches!(e, Error::AmbiguousColumn { .. }));
        // Qualified still works.
        assert_eq!(joined.resolve(&ColumnRef::parse("S.A"), "RxS").unwrap(), 2);
    }

    #[test]
    fn duplicate_column_rejected() {
        let e = Schema::of(&[("A", DataType::Int), ("A", DataType::Int)]).unwrap_err();
        assert!(matches!(e, Error::DuplicateColumn { .. }));
    }

    #[test]
    fn tuple_byte_size_sums_columns() {
        let s = Schema::new(vec![
            ColumnDef::sized(ColumnRef::bare("A"), DataType::Int, 8),
            ColumnDef::sized(ColumnRef::bare("B"), DataType::Text, 92),
        ])
        .unwrap();
        assert_eq!(s.tuple_byte_size(), 100);
    }

    #[test]
    fn union_compatibility_checks_types_positionally() {
        let a = Schema::of(&[("A", DataType::Int), ("B", DataType::Text)]).unwrap();
        let b = Schema::of(&[("X", DataType::Int), ("Y", DataType::Text)]).unwrap();
        let c = Schema::of(&[("X", DataType::Text), ("Y", DataType::Int)]).unwrap();
        assert!(a.union_compatible(&b));
        assert!(!a.union_compatible(&c));
    }

    #[test]
    fn unqualify_collision_detected() {
        let r = sample().qualify("R");
        let s = sample().qualify("S");
        let joined = r.concat(&s).unwrap();
        assert!(joined.unqualify().is_err());
    }

    #[test]
    fn schema_display() {
        assert_eq!(sample().to_string(), "(A INT, B TEXT)");
    }
}
