//! Property-based tests of the generator's containment guarantee, checked
//! with the relational algebra: a generated subset leaves nothing behind
//! when its base is subtracted.

use proptest::prelude::*;

use eve_bench::generator::{generate, generate_subset, AttrSpec, RelationSpec};
use eve_relational::algebra::difference;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generated_subsets_are_contained(card in 1usize..40, sub in 1usize..40, seed in 0u64..1000) {
        prop_assume!(sub <= card);
        let spec = RelationSpec::new(
            "G",
            vec![AttrSpec::new("A", 10_000), AttrSpec::new("B", 10_000)],
            card,
        );
        let base = generate(&spec, seed).unwrap();
        let subset = generate_subset(&base, "Sub", sub, seed.wrapping_add(1)).unwrap();
        prop_assert_eq!(subset.cardinality(), sub);
        prop_assert!(difference(&subset, &base).unwrap().is_empty());
    }
}
