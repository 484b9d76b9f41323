//! Property-based tests of the QC-Model's analytic guarantees.

use proptest::prelude::*;

use eve_qc::cost::{cf_io, cf_messages, cf_transfer, CostFactors};
use eve_qc::quality::ExtentSizes;
use eve_qc::{IoBound, MaintenancePlan, QcParams, RelSpec};

fn rel_spec() -> impl Strategy<Value = RelSpec> {
    (
        10.0f64..10_000.0,
        8.0f64..500.0,
        0.05f64..1.0,
        1.0f64..50.0,
        1e-4f64..0.05,
    )
        .prop_map(|(card, bytes, sel, bfr, js)| RelSpec {
            name: "R".into(),
            cardinality: card,
            tuple_bytes: bytes,
            selectivity: sel,
            blocking_factor: bfr,
            join_selectivity: js,
            from_item: 0,
            conditions: Vec::new(),
        })
}

fn plan() -> impl Strategy<Value = MaintenancePlan> {
    (
        rel_spec(),
        prop::collection::vec(prop::collection::vec(rel_spec(), 0..4), 1..4),
    )
        .prop_map(|(origin, site_rels)| MaintenancePlan {
            origin,
            sites: site_rels
                .into_iter()
                .enumerate()
                .map(|(i, relations)| eve_qc::SiteSpec {
                    site: eve_misd::SiteId(u32::try_from(i).unwrap() + 1),
                    relations,
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // -------------------------------------------------------------------
    // Cost factors on arbitrary heterogeneous plans.
    // -------------------------------------------------------------------

    #[test]
    fn factors_finite_nonnegative_and_ordered(p in plan()) {
        let m = cf_messages(&p, true);
        let t = cf_transfer(&p);
        let lo = cf_io(&p, IoBound::Lower);
        let mid = cf_io(&p, IoBound::Midpoint);
        let hi = cf_io(&p, IoBound::Upper);
        for v in [m, t, lo, mid, hi] {
            prop_assert!(v.is_finite() && v >= 0.0, "{v}");
        }
        prop_assert!(lo <= mid + 1e-9 && mid <= hi + 1e-9);
        // Notification accounting adds exactly one message.
        prop_assert_eq!(m - cf_messages(&p, false), 1.0);
        // Transfer includes at least the update notification.
        prop_assert!(t >= p.origin.tuple_bytes - 1e-9);
    }

    #[test]
    fn transfer_monotone_in_cardinality(p in plan(), factor in 1.0f64..4.0) {
        // Scaling every relation's cardinality up scales deltas up: CF_T
        // cannot decrease (join growth terms are multiplicative and
        // non-negative).
        let mut bigger = p.clone();
        for s in &mut bigger.sites {
            for r in &mut s.relations {
                r.cardinality *= factor;
            }
        }
        prop_assert!(cf_transfer(&bigger) >= cf_transfer(&p) - 1e-9);
    }

    #[test]
    fn eq24_total_is_linear_in_unit_prices(
        p in plan(),
        cm in 0.0f64..2.0,
        ct in 0.0f64..2.0,
        cio in 0.0f64..2.0,
        scale in 0.1f64..5.0,
    ) {
        let factors = CostFactors {
            messages: cf_messages(&p, true),
            transfer: cf_transfer(&p),
            io: cf_io(&p, IoBound::Lower),
        };
        let params1 = QcParams { cost_m: cm, cost_t: ct, cost_io: cio, ..QcParams::default() };
        let params2 = QcParams {
            cost_m: cm * scale,
            cost_t: ct * scale,
            cost_io: cio * scale,
            ..QcParams::default()
        };
        let a = factors.total(&params1);
        let b = factors.total(&params2);
        prop_assert!((b - a * scale).abs() < 1e-6 * (1.0 + a.abs()), "{a} {b}");
    }

    // -------------------------------------------------------------------
    // Extent divergence arithmetic.
    // -------------------------------------------------------------------

    #[test]
    fn dd_ext_bounds_and_monotonicity(
        original in 0.0f64..10_000.0,
        rewriting in 0.0f64..10_000.0,
        overlap in 0.0f64..20_000.0,
        rho in 0.0f64..1.0,
    ) {
        let s = ExtentSizes::new(original, rewriting, overlap);
        let dd = s.dd_ext(rho, 1.0 - rho);
        prop_assert!((0.0..=1.0).contains(&dd), "dd {dd}");
        prop_assert!((0.0..=1.0).contains(&s.d1()));
        prop_assert!((0.0..=1.0).contains(&s.d2()));
        // More overlap never increases divergence.
        let more = ExtentSizes::new(original, rewriting, s.overlap + 1.0);
        prop_assert!(more.dd_ext(rho, 1.0 - rho) <= dd + 1e-12);
        // Perfect overlap means zero divergence.
        let perfect = ExtentSizes::new(original, original, original);
        prop_assert_eq!(perfect.dd_ext(rho, 1.0 - rho), 0.0);
    }

    #[test]
    fn dd_ext_scale_invariant(
        original in 1.0f64..10_000.0,
        rewriting in 1.0f64..10_000.0,
        frac in 0.0f64..1.0,
        scale in 0.001f64..1_000.0,
    ) {
        // D1/D2 are ratios: scaling all three sizes together changes
        // nothing (the §5.4.3 cancellation our estimator relies on).
        let overlap = frac * original.min(rewriting);
        let a = ExtentSizes::new(original, rewriting, overlap).dd_ext(0.5, 0.5);
        let b = ExtentSizes::new(original * scale, rewriting * scale, overlap * scale)
            .dd_ext(0.5, 0.5);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    // -------------------------------------------------------------------
    // Uniform plans: Eq. 22's closed form agrees with Eq. 21 for any
    // parameters, not just Table 1's.
    // -------------------------------------------------------------------

    #[test]
    fn closed_form_matches_general_everywhere(
        dist in prop::collection::vec(1usize..4, 1..5),
        card in 10.0f64..2000.0,
        s in 10.0f64..300.0,
        sel in 0.05f64..1.0,
        js in 1e-4f64..0.02,
    ) {
        let mut plan = MaintenancePlan::uniform(&dist, js).unwrap();
        let patch = |r: &mut RelSpec| {
            r.cardinality = card;
            r.tuple_bytes = s;
            r.selectivity = sel;
        };
        patch(&mut plan.origin);
        for site in &mut plan.sites {
            for r in &mut site.relations {
                patch(r);
            }
        }
        let general = cf_transfer(&plan);
        let closed = eve_qc::cost::cf_transfer_uniform_closed_form(&dist, card, s, sel, js);
        prop_assert!((general - closed).abs() < 1e-6 * (1.0 + general), "{general} vs {closed}");
    }
}
