//! Interface quality: attribute categories and `DD_attr` (§5.2, §5.4.1).
//!
//! Attributes of a view interface fall into four categories by their
//! `(AD, AR)` parameters (Fig. 6). Categories C3/C4 (indispensable) must be
//! preserved by *every* legal rewriting, so they carry no weight; the
//! interface quality of a view counts its C1 and C2 attributes:
//!
//! ```text
//! Q_V = |A¹| · w1 + |A²| · w2                         (Eq. 12)
//! DD_attr(V_i) = (Q_V − Q_{V_i}) / Q_V   (0 when Q_V = 0)
//! ```

use eve_esql::ViewDef;

/// Number of category-C1 attributes (`AD ∧ AR`) in a view interface.
#[must_use]
pub(crate) fn category1_count(view: &ViewDef) -> usize {
    view.select
        .iter()
        .filter(|s| s.evolution.dispensable && s.evolution.replaceable)
        .count()
}

/// Number of category-C2 attributes (`AD ∧ ¬AR`) in a view interface.
#[must_use]
pub(crate) fn category2_count(view: &ViewDef) -> usize {
    view.select
        .iter()
        .filter(|s| s.evolution.dispensable && !s.evolution.replaceable)
        .count()
}

/// Interface quality `Q_V` (Eq. 12).
#[must_use]
pub fn interface_quality(view: &ViewDef, w1: f64, w2: f64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        category1_count(view) as f64 * w1 + category2_count(view) as f64 * w2
    }
}

/// Normalized interface divergence `DD_attr(V_i)` of a rewriting from the
/// original view (§5.4.1). Clamped to `[0, 1]`.
#[must_use]
pub fn dd_attr(original: &ViewDef, rewriting: &ViewDef, w1: f64, w2: f64) -> f64 {
    let q_v = interface_quality(original, w1, w2);
    if q_v == 0.0 {
        // All original attributes are indispensable; any legal rewriting
        // preserves them entirely.
        return 0.0;
    }
    let q_vi = interface_quality(rewriting, w1, w2);
    ((q_v - q_vi) / q_v).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_esql::parse_view;

    /// The paper's Example 1: V selects A (strict), B and C (both C1).
    fn example1() -> (ViewDef, ViewDef, ViewDef) {
        let v = parse_view(
            "CREATE VIEW V (VE = '=') AS \
             SELECT A, B (AD = true, AR = true), C (AD = true, AR = true) \
             FROM R WHERE R.A > 10",
        )
        .unwrap();
        let v1 = parse_view(
            "CREATE VIEW V1 (VE = '=') AS \
             SELECT A, B (AD = true, AR = true) FROM R WHERE R.A > 10",
        )
        .unwrap();
        let v2 = parse_view("CREATE VIEW V2 (VE = '=') AS SELECT A FROM R WHERE R.A > 10").unwrap();
        (v, v1, v2)
    }

    #[test]
    fn example3_divergences() {
        // Example 3: Q_V = 2·w1; Q_V1 = w1 ⇒ DD_attr(V1) = 0.5;
        // Q_V2 = 0 ⇒ DD_attr(V2) = 1.
        let (v, v1, v2) = example1();
        let (w1, w2) = (0.7, 0.3);
        assert!((interface_quality(&v, w1, w2) - 1.4).abs() < 1e-12);
        assert!((dd_attr(&v, &v1, w1, w2) - 0.5).abs() < 1e-12);
        assert!((dd_attr(&v, &v2, w1, w2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn category_counting() {
        let v = parse_view(
            "CREATE VIEW V AS \
             SELECT R.A (AD = true, AR = true), R.B (AD = true), \
                    R.C (AR = true), R.D \
             FROM R",
        )
        .unwrap();
        assert_eq!(category1_count(&v), 1); // A
        assert_eq!(category2_count(&v), 1); // B
    }

    #[test]
    fn all_indispensable_gives_zero_divergence() {
        let v = parse_view("CREATE VIEW V AS SELECT R.A, R.B FROM R").unwrap();
        let vi = parse_view("CREATE VIEW V AS SELECT R.A, R.B FROM R").unwrap();
        assert_eq!(dd_attr(&v, &vi, 0.7, 0.3), 0.0);
    }

    #[test]
    fn relative_weights_drive_preference() {
        // Experiment 1's dichotomy: with w1 > w2 a rewriting preserving the
        // C1 attribute beats one preserving the C2 attribute, and vice versa.
        let v = parse_view(
            "CREATE VIEW V0 AS SELECT R.A (AD = true, AR = true), R.B (AD = true) FROM R",
        )
        .unwrap();
        let keeps_a =
            parse_view("CREATE VIEW V1 AS SELECT S.A (AD = true, AR = true) FROM S").unwrap();
        let keeps_b = parse_view("CREATE VIEW V3 AS SELECT R.B (AD = true) FROM R").unwrap();
        // w1 > w2: keeping A diverges less.
        assert!(dd_attr(&v, &keeps_a, 0.7, 0.3) < dd_attr(&v, &keeps_b, 0.7, 0.3));
        // w2 > w1: keeping B diverges less.
        assert!(dd_attr(&v, &keeps_b, 0.3, 0.7) < dd_attr(&v, &keeps_a, 0.3, 0.7));
    }

    #[test]
    fn dd_attr_is_clamped() {
        // A rewriting with *more* weighted attributes than the original
        // (possible after an attribute gains evolution parameters) clamps to
        // zero rather than going negative.
        let v = parse_view("CREATE VIEW V AS SELECT R.A (AD = true) FROM R").unwrap();
        let vi =
            parse_view("CREATE VIEW V AS SELECT R.A (AD = true), R.B (AD = true) FROM R").unwrap();
        assert_eq!(dd_attr(&v, &vi, 0.7, 0.3), 0.0);
    }
}
