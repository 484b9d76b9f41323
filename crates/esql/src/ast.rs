//! E-SQL abstract syntax (paper Fig. 2–3).

use std::fmt;

use eve_relational::{ColumnRef, PrimitiveClause};

/// The view-extent evolution parameter `VE` (Fig. 3): which relationship the
/// evolved extent must keep to the original one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ViewExtent {
    /// `≈` — no restriction on the new extent.
    Approximate,
    /// `≡` — new extent must equal the old extent. This is the default: with
    /// no stated preference, EVE falls back to classical equivalent
    /// rewritings.
    #[default]
    Equal,
    /// `⊇` — new extent must be a superset of the old extent.
    Superset,
    /// `⊆` — new extent must be a subset of the old extent.
    Subset,
}

impl ViewExtent {
    /// Canonical E-SQL spelling (ASCII).
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            ViewExtent::Approximate => "~",
            ViewExtent::Equal => "=",
            ViewExtent::Superset => ">=",
            ViewExtent::Subset => "<=",
        }
    }
}

impl fmt::Display for ViewExtent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Per-attribute evolution parameters `(AD, AR)` (Fig. 3, rows 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AttrEvolution {
    /// `AD` — the attribute may be dropped from the view interface.
    pub dispensable: bool,
    /// `AR` — the attribute may be replaced by similar information from
    /// another IS.
    pub replaceable: bool,
}

/// Per-condition evolution parameters `(CD, CR)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CondEvolution {
    /// `CD` — the condition may be dropped.
    pub dispensable: bool,
    /// `CR` — the condition may be replaced (its attributes substituted).
    pub replaceable: bool,
}

/// Per-relation evolution parameters `(RD, RR)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RelEvolution {
    /// `RD` — the relation (and everything derived from it) may be dropped.
    pub dispensable: bool,
    /// `RR` — the relation may be replaced by another relation.
    pub replaceable: bool,
}

/// One SELECT item: `R.A (AD = …, AR = …) [AS B]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectItem {
    /// The source attribute (qualifier must name a FROM item's alias).
    pub attr: ColumnRef,
    /// Optional output name; defaults to the attribute name.
    pub alias: Option<String>,
    /// Evolution parameters.
    pub evolution: AttrEvolution,
}

impl SelectItem {
    /// Plain item with default (strict) evolution.
    #[must_use]
    pub fn new(attr: ColumnRef) -> SelectItem {
        SelectItem {
            attr,
            alias: None,
            evolution: AttrEvolution::default(),
        }
    }

    /// The output column name this item produces.
    #[must_use]
    pub fn output_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.attr.name)
    }
}

/// One FROM item: `Relation [Alias] (RD = …, RR = …)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromItem {
    /// Base relation name as registered with an information source.
    pub relation: String,
    /// Optional alias; defaults to the relation name.
    pub alias: Option<String>,
    /// Evolution parameters.
    pub evolution: RelEvolution,
}

impl FromItem {
    /// Plain item with default (strict) evolution.
    #[must_use]
    pub fn new(relation: impl Into<String>) -> FromItem {
        FromItem {
            relation: relation.into(),
            alias: None,
            evolution: RelEvolution::default(),
        }
    }

    /// The name by which attributes reference this item.
    #[must_use]
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.relation)
    }
}

/// One WHERE conjunct: `(clause) (CD = …, CR = …)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionItem {
    /// The primitive clause.
    pub clause: PrimitiveClause,
    /// Evolution parameters.
    pub evolution: CondEvolution,
}

impl ConditionItem {
    /// Plain condition with default (strict) evolution.
    #[must_use]
    pub fn new(clause: PrimitiveClause) -> ConditionItem {
        ConditionItem {
            clause,
            evolution: CondEvolution::default(),
        }
    }
}

/// A complete E-SQL view definition (Fig. 2):
///
/// ```text
/// CREATE VIEW V (B_1, …, B_m) (VE = VE_V) AS
/// SELECT R_1.A_11 (AD = …, AR = …), …
/// FROM   R_1 (RD = …, RR = …), …
/// WHERE  C_1 (CD = …, CR = …) AND …
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// Optional explicit output column names `(B_1 … B_m)`; when present the
    /// length must equal the number of SELECT items.
    pub column_names: Option<Vec<String>>,
    /// View-extent evolution parameter.
    pub ve: ViewExtent,
    /// SELECT items.
    pub select: Vec<SelectItem>,
    /// FROM items.
    pub from: Vec<FromItem>,
    /// WHERE conjuncts.
    pub conditions: Vec<ConditionItem>,
}

impl ViewDef {
    /// Builds a view with no conditions and default VE.
    #[must_use]
    pub fn new(name: impl Into<String>, select: Vec<SelectItem>, from: Vec<FromItem>) -> ViewDef {
        ViewDef {
            name: name.into(),
            column_names: None,
            ve: ViewExtent::default(),
            select,
            from,
            conditions: Vec::new(),
        }
    }

    /// Output column names, in order: explicit `column_names` if given,
    /// otherwise each item's alias or attribute name.
    #[must_use]
    pub fn output_columns(&self) -> Vec<String> {
        match &self.column_names {
            Some(names) => names.clone(),
            None => self
                .select
                .iter()
                .map(|s| s.output_name().to_owned())
                .collect(),
        }
    }

    /// Finds the FROM item bound under `binding` (alias or relation name).
    #[must_use]
    pub fn from_item(&self, binding: &str) -> Option<&FromItem> {
        self.from.iter().find(|f| f.binding_name() == binding)
    }

    /// All SELECT items drawing from the FROM binding `binding`.
    #[must_use]
    pub fn select_items_of(&self, binding: &str) -> Vec<&SelectItem> {
        self.select
            .iter()
            .filter(|s| s.attr.qualifier.as_deref() == Some(binding))
            .collect()
    }

    /// Conjunction of all condition clauses.
    #[must_use]
    pub fn predicate(&self) -> eve_relational::Predicate {
        eve_relational::Predicate::new(self.conditions.iter().map(|c| c.clause.clone()).collect())
    }
}

fn fmt_props(f: &mut fmt::Formatter<'_>, props: &[(&str, bool)]) -> fmt::Result {
    // Only print parameters that deviate from the default (false), matching
    // the paper's convention ("parameters set to false omitted").
    let set: Vec<&(&str, bool)> = props.iter().filter(|(_, v)| *v).collect();
    if set.is_empty() {
        return Ok(());
    }
    write!(f, " (")?;
    for (i, (name, _)) in set.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{name} = true")?;
    }
    write!(f, ")")
}

impl fmt::Display for ViewDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CREATE VIEW {}", self.name)?;
        if let Some(cols) = &self.column_names {
            write!(f, " ({})", cols.join(", "))?;
        }
        writeln!(f, " (VE = '{}') AS", self.ve)?;
        write!(f, "SELECT ")?;
        for (i, s) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", s.attr)?;
            if let Some(a) = &s.alias {
                write!(f, " AS {a}")?;
            }
            fmt_props(
                f,
                &[
                    ("AD", s.evolution.dispensable),
                    ("AR", s.evolution.replaceable),
                ],
            )?;
        }
        writeln!(f)?;
        write!(f, "FROM ")?;
        for (i, r) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", r.relation)?;
            if let Some(a) = &r.alias {
                write!(f, " {a}")?;
            }
            fmt_props(
                f,
                &[
                    ("RD", r.evolution.dispensable),
                    ("RR", r.evolution.replaceable),
                ],
            )?;
        }
        if !self.conditions.is_empty() {
            writeln!(f)?;
            write!(f, "WHERE ")?;
            for (i, c) in self.conditions.iter().enumerate() {
                if i > 0 {
                    write!(f, " AND ")?;
                }
                write!(f, "({})", c.clause)?;
                fmt_props(
                    f,
                    &[
                        ("CD", c.evolution.dispensable),
                        ("CR", c.evolution.replaceable),
                    ],
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::{CompOp, Value};

    /// The paper's running example (query 2): the Asia-Customer view.
    pub(crate) fn asia_customer() -> ViewDef {
        ViewDef {
            name: "Asia-Customer".into(),
            column_names: None,
            ve: ViewExtent::Approximate,
            select: vec![
                SelectItem::new(ColumnRef::parse("C.Name")),
                SelectItem::new(ColumnRef::parse("C.Address")),
                SelectItem {
                    attr: ColumnRef::parse("C.Phone"),
                    alias: None,
                    evolution: AttrEvolution {
                        dispensable: true,
                        replaceable: true,
                    },
                },
            ],
            from: vec![
                FromItem {
                    relation: "Customer".into(),
                    alias: Some("C".into()),
                    evolution: RelEvolution {
                        dispensable: false,
                        replaceable: true,
                    },
                },
                FromItem {
                    relation: "FlightRes".into(),
                    alias: Some("F".into()),
                    evolution: RelEvolution::default(),
                },
            ],
            conditions: vec![
                ConditionItem::new(PrimitiveClause::eq(
                    ColumnRef::parse("C.Name"),
                    ColumnRef::parse("F.PName"),
                )),
                ConditionItem {
                    clause: PrimitiveClause::lit(
                        ColumnRef::parse("F.Dest"),
                        CompOp::Eq,
                        Value::from("Asia"),
                    ),
                    evolution: CondEvolution {
                        dispensable: true,
                        replaceable: false,
                    },
                },
            ],
        }
    }

    #[test]
    fn output_columns_default_to_attr_names() {
        let v = asia_customer();
        assert_eq!(v.output_columns(), vec!["Name", "Address", "Phone"]);
    }

    #[test]
    fn explicit_column_names_win() {
        let mut v = asia_customer();
        v.column_names = Some(vec!["N".into(), "A".into(), "P".into()]);
        assert_eq!(v.output_columns(), vec!["N", "A", "P"]);
    }

    #[test]
    fn alias_overrides_attr_name() {
        let mut v = asia_customer();
        v.select[0].alias = Some("CustomerName".into());
        assert_eq!(v.output_columns()[0], "CustomerName");
    }

    #[test]
    fn from_item_lookup_by_alias() {
        let v = asia_customer();
        assert_eq!(v.from_item("C").unwrap().relation, "Customer");
        assert!(v.from_item("Customer").is_none()); // bound under alias C
        assert_eq!(v.from_item("F").unwrap().relation, "FlightRes");
    }

    #[test]
    fn select_items_and_conditions_by_binding() {
        let v = asia_customer();
        assert_eq!(v.select_items_of("C").len(), 3);
        assert_eq!(v.select_items_of("F").len(), 0);
        let conditions_of = |binding: &str| {
            v.conditions
                .iter()
                .filter(|c| c.clause.references_qualifier(binding))
                .count()
        };
        assert_eq!(conditions_of("F"), 2);
        assert_eq!(conditions_of("C"), 1);
    }

    #[test]
    fn display_omits_default_parameters() {
        let text = asia_customer().to_string();
        assert!(text.contains("C.Phone (AD = true, AR = true)"));
        assert!(!text.contains("C.Name (")); // strict attr prints bare
        assert!(text.contains("Customer C (RR = true)"));
        assert!(text.contains("(F.Dest = 'Asia') (CD = true)"));
        assert!(text.starts_with("CREATE VIEW Asia-Customer (VE = '~') AS"));
    }

    #[test]
    fn predicate_collects_all_clauses() {
        let v = asia_customer();
        assert_eq!(v.predicate().clauses().len(), 2);
    }

    #[test]
    fn ve_defaults_to_equal() {
        assert_eq!(ViewExtent::default(), ViewExtent::Equal);
        let v = ViewDef::new("V", vec![], vec![]);
        assert_eq!(v.ve, ViewExtent::Equal);
    }
}
