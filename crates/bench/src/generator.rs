//! Deterministic synthetic data generation.
//!
//! The paper's experiments assume relations with controlled cardinalities,
//! selection selectivities, join selectivities, and containment (PC)
//! relationships between relations (e.g. Experiment 4's chain
//! `S1 ⊆ S2 ⊆ S3 = R2 ⊆ S4 ⊆ S5`). This module generates extents realizing
//! those assumptions so the analytic QC-Model can be validated against
//! measured data.
//!
//! All generation is seeded ([`rand::rngs::StdRng`]); the same spec and seed
//! always produce the same extent.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use eve_relational::{
    ColumnDef, ColumnRef, DataType, Error, Relation, Result, Schema, Tuple, Value,
};

/// Specification of one generated attribute.
#[derive(Debug, Clone)]
pub struct AttrSpec {
    /// Attribute name.
    pub name: String,
    /// Values are drawn uniformly from `0..domain`. For an equijoin of two
    /// relations generated over the same domain, the expected join
    /// selectivity is `1 / domain`.
    pub domain: u64,
}

impl AttrSpec {
    /// Builds an attribute spec.
    #[must_use]
    pub fn new(name: impl Into<String>, domain: u64) -> AttrSpec {
        AttrSpec {
            name: name.into(),
            domain,
        }
    }
}

/// Specification of a generated relation.
#[derive(Debug, Clone)]
pub struct RelationSpec {
    /// Relation name (columns are qualified with it).
    pub name: String,
    /// Attribute specifications.
    pub attrs: Vec<AttrSpec>,
    /// Number of tuples to generate.
    pub cardinality: usize,
    /// When `true`, generated tuples are pairwise distinct.
    pub distinct: bool,
}

impl RelationSpec {
    /// Builds a relation spec producing distinct tuples.
    #[must_use]
    pub fn new(name: impl Into<String>, attrs: Vec<AttrSpec>, cardinality: usize) -> RelationSpec {
        RelationSpec {
            name: name.into(),
            attrs,
            cardinality,
            distinct: true,
        }
    }

    fn schema(&self) -> Result<Schema> {
        Schema::new(
            self.attrs
                .iter()
                .map(|a| {
                    ColumnDef::new(
                        ColumnRef::qualified(self.name.clone(), a.name.clone()),
                        DataType::Int,
                    )
                })
                .collect(),
        )
    }

    /// Total number of distinct tuples the attribute domains allow.
    fn domain_size(&self) -> u128 {
        self.attrs
            .iter()
            .map(|a| u128::from(a.domain.max(1)))
            .product()
    }
}

/// Generates a relation according to `spec`, deterministically from `seed`.
///
/// # Errors
///
/// [`Error::Generator`] when `spec.distinct` is set but the attribute domains
/// cannot hold `cardinality` distinct tuples.
pub fn generate(spec: &RelationSpec, seed: u64) -> Result<Relation> {
    if spec.distinct && (spec.cardinality as u128) > spec.domain_size() {
        return Err(Error::Generator {
            detail: format!(
                "cannot generate {} distinct tuples from a domain of {}",
                spec.cardinality,
                spec.domain_size()
            ),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = spec.schema()?;
    let mut rel = Relation::empty(spec.name.clone(), schema);
    let mut seen = std::collections::BTreeSet::new();
    while rel.cardinality() < spec.cardinality {
        let tuple = Tuple::new(
            spec.attrs
                .iter()
                .map(|a| {
                    #[allow(clippy::cast_possible_wrap)]
                    Value::Int(rng.gen_range(0..a.domain.max(1)) as i64)
                })
                .collect(),
        );
        if spec.distinct && !seen.insert(tuple.clone()) {
            continue;
        }
        rel.insert(tuple)?;
    }
    Ok(rel)
}

/// Generates a relation `sub ⊆ base` by sampling `cardinality` distinct
/// tuples from `base` (realizing a *complete* PC constraint `sub ⊆ base`).
/// Columns are re-qualified with `name`.
///
/// # Errors
///
/// [`Error::Generator`] if `base` holds fewer distinct tuples than requested.
pub fn generate_subset(
    base: &Relation,
    name: &str,
    cardinality: usize,
    seed: u64,
) -> Result<Relation> {
    let distinct = base.distinct();
    if cardinality > distinct.cardinality() {
        return Err(Error::Generator {
            detail: format!(
                "subset of {cardinality} tuples requested from base with {} distinct tuples",
                distinct.cardinality()
            ),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Tuple> = distinct.tuples().to_vec();
    rows.shuffle(&mut rng);
    rows.truncate(cardinality);
    rows.sort();
    let schema = base.schema().unqualify()?.qualify(name);
    Relation::with_tuples(name, schema, rows)
}

/// Generates a chain of relations realizing Experiment 4's containment
/// pattern: given ascending cardinalities `c_1 ≤ … ≤ c_k`, produces
/// relations `S_1 ⊆ S_2 ⊆ … ⊆ S_k` named `name_1 … name_k`, where `S_k` is
/// drawn from `spec` (with `spec.cardinality = c_k`).
///
/// # Errors
///
/// Propagates generation failures; [`Error::Generator`] if the cardinalities
/// are not ascending.
pub(crate) fn generate_containment_chain(
    spec: &RelationSpec,
    base_name: &str,
    cards: &[usize],
    seed: u64,
) -> Result<Vec<Relation>> {
    if cards.windows(2).any(|w| w[0] > w[1]) {
        return Err(Error::Generator {
            detail: "containment chain cardinalities must be ascending".to_owned(),
        });
    }
    let Some(&max_card) = cards.last() else {
        return Ok(Vec::new());
    };
    let mut top_spec = spec.clone();
    top_spec.cardinality = max_card;
    top_spec.name = format!("{base_name}{}", cards.len());
    let top = generate(&top_spec, seed)?;
    let mut out: Vec<Relation> = Vec::with_capacity(cards.len());
    let mut current = top;
    for (i, &c) in cards.iter().enumerate().rev() {
        let name = format!("{base_name}{}", i + 1);
        let r = if c == current.cardinality() {
            let schema = current.schema().unqualify()?.qualify(&name);
            Relation::with_tuples(&name, schema, current.tuples().to_vec())?
        } else {
            generate_subset(&current, &name, c, seed.wrapping_add(i as u64 + 1))?
        };
        current = r.clone();
        out.push(r);
    }
    out.reverse();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::algebra::{difference, join};
    use eve_relational::{Predicate, PrimitiveClause};

    fn spec(card: usize) -> RelationSpec {
        RelationSpec::new(
            "R",
            vec![AttrSpec::new("A", 10_000), AttrSpec::new("B", 10_000)],
            card,
        )
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&spec(50), 42).unwrap();
        let b = generate(&spec(50), 42).unwrap();
        assert_eq!(a, b);
        let c = generate(&spec(50), 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn distinct_generation_has_no_duplicates() {
        let r = generate(&spec(200), 7).unwrap();
        assert_eq!(r.distinct().cardinality(), 200);
    }

    #[test]
    fn impossible_distinct_request_errors() {
        let s = RelationSpec::new("R", vec![AttrSpec::new("A", 3)], 10);
        assert!(matches!(generate(&s, 1), Err(Error::Generator { .. })));
    }

    #[test]
    fn subset_is_contained() {
        let base = generate(&spec(100), 1).unwrap();
        let sub = generate_subset(&base, "S", 40, 2).unwrap();
        assert_eq!(sub.cardinality(), 40);
        assert!(difference(&sub, &base).unwrap().is_empty());
    }

    #[test]
    fn subset_too_large_errors() {
        let base = generate(&spec(10), 1).unwrap();
        assert!(generate_subset(&base, "S", 11, 2).is_err());
    }

    #[test]
    fn containment_chain_realizes_experiment4() {
        // Experiment 4 cardinalities scaled down: 20 ⊆ 30 ⊆ 40 ⊆ 50 ⊆ 60.
        let chain = generate_containment_chain(&spec(0), "S", &[20, 30, 40, 50, 60], 11).unwrap();
        assert_eq!(chain.len(), 5);
        for (i, r) in chain.iter().enumerate() {
            assert_eq!(r.cardinality(), 20 + 10 * i);
        }
        for w in chain.windows(2) {
            assert!(difference(&w[0], &w[1]).unwrap().is_empty());
        }
        assert_eq!(chain[0].name(), "S1");
        assert_eq!(chain[4].name(), "S5");
    }

    #[test]
    fn containment_chain_rejects_descending() {
        assert!(generate_containment_chain(&spec(0), "S", &[5, 3], 1).is_err());
    }

    #[test]
    fn join_selectivity_tracks_domain() {
        // Two relations with a key over domain 100 ⇒ expected js ≈ 1/100.
        let a = generate(
            &RelationSpec::new(
                "A",
                vec![AttrSpec::new("K", 100), AttrSpec::new("P", 1_000_000)],
                200,
            ),
            5,
        )
        .unwrap();
        let b = generate(
            &RelationSpec::new(
                "B",
                vec![AttrSpec::new("K", 100), AttrSpec::new("Q", 1_000_000)],
                200,
            ),
            6,
        )
        .unwrap();
        let on = Predicate::single(PrimitiveClause::eq(
            ColumnRef::parse("A.K"),
            ColumnRef::parse("B.K"),
        ));
        #[allow(clippy::cast_precision_loss)]
        let js = join(&a, &b, &on).unwrap().cardinality() as f64 / (200.0 * 200.0);
        assert!((js - 0.01).abs() < 0.005, "js = {js}");
    }
}
