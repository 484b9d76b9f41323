//! Database statistics (paper §6.1).
//!
//! The cost model assumes the following statistics are registered in the MKB
//! for every relation:
//!
//! 1. cardinality `|R|`,
//! 2. attribute sizes `s_{R.A}` (hence tuple size `s_R`),
//! 3. join selectivity `js` (fraction of tuple pairs that join),
//! 4. local selection selectivity `σ`,
//! 5. `|R|` and `js` assumed stable under updates,
//! 6. blocking factor / block size.
//!
//! This module provides the [`RelationStats`] record (declared statistics);
//! [`Predicate::selectivity`](crate::Predicate::selectivity) measures a
//! selectivity on an actual extent.

use crate::relation::Relation;

/// Declared statistics for one relation, as registered in the MKB.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationStats {
    /// Cardinality `|R|`.
    pub cardinality: u64,
    /// Tuple size `s_R` in bytes.
    pub tuple_bytes: u64,
    /// Local selection selectivity `σ_R` of the relation's condition in a
    /// view (assumed equality-based and constant, §6.1 assumption 4).
    pub selectivity: f64,
    /// Blocking factor `bfr_R`: tuples per physical block (Appendix A).
    pub blocking_factor: u64,
}

impl RelationStats {
    /// Builds stats with the paper's Table 1 defaults for unspecified fields
    /// (`σ = 0.5`, `bfr = 10`).
    #[must_use]
    pub fn new(cardinality: u64, tuple_bytes: u64) -> RelationStats {
        RelationStats {
            cardinality,
            tuple_bytes,
            selectivity: 0.5,
            blocking_factor: 10,
        }
    }

    /// Number of I/Os to scan the whole relation: `⌈|R| / bfr⌉` (Eq. 32).
    #[must_use]
    pub fn full_scan_ios(&self) -> u64 {
        if self.blocking_factor == 0 {
            return self.cardinality;
        }
        self.cardinality.div_ceil(self.blocking_factor)
    }

    /// Extracts declared-statistics defaults from an actual relation extent.
    #[must_use]
    pub fn from_relation(rel: &Relation) -> RelationStats {
        RelationStats::new(rel.cardinality() as u64, rel.tuple_byte_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tup;
    use crate::types::DataType;

    #[test]
    fn full_scan_ios_rounds_up() {
        let s = RelationStats {
            cardinality: 401,
            tuple_bytes: 100,
            selectivity: 0.5,
            blocking_factor: 10,
        };
        assert_eq!(s.full_scan_ios(), 41);
        let exact = RelationStats::new(400, 100);
        assert_eq!(exact.full_scan_ios(), 40);
    }

    #[test]
    fn zero_blocking_factor_degrades_to_cardinality() {
        let s = RelationStats {
            cardinality: 7,
            tuple_bytes: 10,
            selectivity: 1.0,
            blocking_factor: 0,
        };
        assert_eq!(s.full_scan_ios(), 7);
    }

    #[test]
    fn stats_from_relation() {
        let r = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            vec![tup![1], tup![2]],
        )
        .unwrap();
        let s = RelationStats::from_relation(&r);
        assert_eq!(s.cardinality, 2);
        assert_eq!(s.tuple_bytes, 8);
    }
}
