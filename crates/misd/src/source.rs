//! Information source and relation descriptions (paper Eq. 3, §6.1).

use std::fmt;

use eve_relational::{ColumnDef, ColumnRef, DataType, Schema};

/// Identifier of an information source (site). The paper's `IS_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IS{}", self.0)
    }
}

/// One attribute of a registered relation, carrying its type integrity
/// constraint `A(Type)` and its registered size `s_{R.A}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeInfo {
    /// Attribute name.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// Declared size in bytes.
    pub byte_size: u32,
}

impl AttributeInfo {
    /// Attribute with the type's default byte size.
    #[must_use]
    pub fn new(name: impl Into<String>, ty: DataType) -> AttributeInfo {
        AttributeInfo {
            name: name.into(),
            ty,
            byte_size: ty.default_byte_size(),
        }
    }

    /// Attribute with an explicit byte size.
    #[must_use]
    pub fn sized(name: impl Into<String>, ty: DataType, byte_size: u32) -> AttributeInfo {
        AttributeInfo {
            name: name.into(),
            ty,
            byte_size,
        }
    }
}

/// Description of a relation registered by an information source, together
/// with the database statistics the cost model consumes (§6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct RelationInfo {
    /// Globally unique relation name.
    pub name: String,
    /// Hosting information source.
    pub site: SiteId,
    /// Attributes with their type integrity constraints.
    pub attributes: Vec<AttributeInfo>,
    /// Cardinality `|R|`.
    pub cardinality: u64,
    /// Local-condition selectivity `σ` of this relation's selection in view
    /// queries (§6.1 assumption 4; Table 1 default 0.5).
    pub selectivity: f64,
    /// Blocking factor `bfr` — tuples per physical block (Table 1 default 10).
    pub blocking_factor: u64,
}

impl RelationInfo {
    /// Builds a relation description with the paper's Table 1 defaults for
    /// `σ` (0.5) and `bfr` (10).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        site: SiteId,
        attributes: Vec<AttributeInfo>,
        cardinality: u64,
    ) -> RelationInfo {
        RelationInfo {
            name: name.into(),
            site,
            attributes,
            cardinality,
            selectivity: 0.5,
            blocking_factor: 10,
        }
    }

    /// Looks up an attribute by name.
    #[must_use]
    pub fn attribute(&self, name: &str) -> Option<&AttributeInfo> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// Whether the relation has an attribute named `name`.
    #[must_use]
    pub fn has_attribute(&self, name: &str) -> bool {
        self.attribute(name).is_some()
    }

    /// Tuple size `s_R` in bytes: sum of attribute sizes.
    #[must_use]
    pub fn tuple_bytes(&self) -> u64 {
        self.attributes.iter().map(|a| u64::from(a.byte_size)).sum()
    }

    /// Number of I/Os for a full scan: `⌈|R| / bfr⌉` (Eq. 32).
    #[must_use]
    pub fn full_scan_ios(&self) -> u64 {
        if self.blocking_factor == 0 {
            return self.cardinality;
        }
        self.cardinality.div_ceil(self.blocking_factor)
    }

    /// The relation's schema with columns qualified by the relation name.
    ///
    /// # Panics
    ///
    /// Never panics for a validly registered relation (attribute names are
    /// checked unique at registration).
    #[must_use]
    #[allow(
        clippy::expect_used,
        reason = "`Mkb::register_relation`, which `Mkb::from_state` also goes \
                  through, refuses duplicate attribute names"
    )]
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.attributes
                .iter()
                .map(|a| {
                    ColumnDef::sized(
                        ColumnRef::qualified(self.name.clone(), a.name.clone()),
                        a.ty,
                        a.byte_size,
                    )
                })
                .collect(),
        )
        .expect("registered relations have unique attribute names")
    }
}

impl fmt::Display for RelationInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}(", self.site, self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty)?;
        }
        write!(f, ") |R|={}", self.cardinality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> RelationInfo {
        RelationInfo::new(
            "Customer",
            SiteId(1),
            vec![
                AttributeInfo::sized("Name", DataType::Text, 30),
                AttributeInfo::sized("Address", DataType::Text, 60),
                AttributeInfo::new("Age", DataType::Int),
            ],
            4000,
        )
    }

    #[test]
    fn attribute_lookup() {
        let r = rel();
        assert!(r.has_attribute("Name"));
        assert!(!r.has_attribute("Phone"));
        assert_eq!(r.attribute("Age").unwrap().ty, DataType::Int);
    }

    #[test]
    fn tuple_bytes_sums_sizes() {
        assert_eq!(rel().tuple_bytes(), 30 + 60 + 8);
    }

    #[test]
    fn defaults_match_table_1() {
        let r = rel();
        assert!((r.selectivity - 0.5).abs() < f64::EPSILON);
        assert_eq!(r.blocking_factor, 10);
    }

    #[test]
    fn full_scan_ios_eq_32() {
        let r = rel();
        assert_eq!(r.full_scan_ios(), 400);
        let mut odd = rel();
        odd.cardinality = 4001;
        assert_eq!(odd.full_scan_ios(), 401);
    }

    #[test]
    fn schema_is_qualified() {
        let s = rel().schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(0).column, ColumnRef::qualified("Customer", "Name"));
        assert_eq!(s.tuple_byte_size(), 98);
    }

    #[test]
    fn display_shows_site_and_stats() {
        let text = rel().to_string();
        assert!(text.starts_with("IS1.Customer("));
        assert!(text.ends_with("|R|=4000"));
    }
}
