//! §7.6 — the pruning heuristics, validated against the model.
//!
//! The paper distils its experiments into heuristics a synchronizer could
//! use to avoid scoring every legal rewriting. Each function here checks one
//! heuristic *quantitatively* and returns the supporting numbers for the
//! report.

use eve_qc::cost::{cf_messages, cf_transfer, compositions};

use super::exp2_sites::{plan_for, Table1};
use super::exp4_cardinality::{table4, FIG15_CASES};

/// One heuristic check: name, whether the model supports it, and evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicCheck {
    /// Short name.
    pub name: String,
    /// Whether the check passed.
    pub holds: bool,
    /// Human-readable evidence.
    pub evidence: String,
}

/// H1 — "prefer a legal rewriting with a smaller number of information
/// sources": average `CF_T` strictly increases with `m`.
#[must_use]
pub(crate) fn h1_fewer_sites_cheaper() -> HeuristicCheck {
    let params = Table1::default();
    let mut avgs = Vec::new();
    for m in 1..=params.relations {
        let dists = compositions(params.relations, m);
        let total: f64 = dists
            .iter()
            .map(|d| cf_transfer(&plan_for(d, &params)))
            .sum();
        #[allow(clippy::cast_precision_loss)]
        avgs.push(total / dists.len() as f64);
    }
    let holds = avgs.windows(2).all(|w| w[0] < w[1]);
    HeuristicCheck {
        name: "H1: fewer sites ⇒ lower transfer cost".into(),
        holds,
        evidence: format!(
            "avg CF_T by m: {}",
            avgs.iter()
                .map(|v| format!("{v:.0}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// H2 — "choose the replacement closest in size to the original": among the
/// superset substitutes of Experiment 4 (`V3 ⊆ V4 ⊆ V5` sizes), `V3` ranks
/// best under *every* trade-off setting.
///
/// # Errors
///
/// QC-Model failures.
pub(crate) fn h2_closest_size_wins() -> eve_qc::Result<HeuristicCheck> {
    let mut holds = true;
    let mut evidence = String::new();
    for (q, c) in FIG15_CASES {
        let rows = table4(q, c)?;
        let rating = |n: &str| rows.iter().find(|r| r.rewriting == n).unwrap().rating;
        let ok = rating("V3") < rating("V4") && rating("V4") < rating("V5");
        holds &= ok;
        evidence.push_str(&format!(
            "case ({q}, {c}): V3/V4/V5 rated {}/{}/{}; ",
            rating("V3"),
            rating("V4"),
            rating("V5")
        ));
    }
    Ok(HeuristicCheck {
        name: "H2: closest-size superset replacement ranks best".into(),
        holds,
        evidence,
    })
}

/// H3 — "minimize messages by minimizing sites": `CF_M` is non-decreasing
/// in `m` for every distribution shape.
#[must_use]
pub(crate) fn h3_messages_grow_with_sites() -> HeuristicCheck {
    let params = Table1::default();
    let mut max_prev = 0.0f64;
    let mut holds = true;
    let mut series = Vec::new();
    for m in 1..=params.relations {
        let dists = compositions(params.relations, m);
        let min_here = dists
            .iter()
            .map(|d| cf_messages(&plan_for(d, &params), true))
            .fold(f64::INFINITY, f64::min);
        if m > 1 && min_here < max_prev {
            holds = false;
        }
        max_prev = dists
            .iter()
            .map(|d| cf_messages(&plan_for(d, &params), true))
            .fold(f64::NEG_INFINITY, f64::max);
        series.push(min_here);
    }
    HeuristicCheck {
        name: "H3: fewer sites ⇒ fewer messages".into(),
        holds,
        evidence: format!(
            "min CF_M by m: {}",
            series
                .iter()
                .map(|v| format!("{v:.0}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// H4 — under workload M1 "prefer smaller relations": with updates
/// proportional to cardinality, the total cost of a rewriting referencing a
/// `c`-tuple substitute grows super-linearly in `c`, so the smallest
/// satisfactory substitute minimizes total cost.
///
/// # Errors
///
/// QC-Model failures.
pub(crate) fn h4_m1_prefers_small_relations() -> eve_qc::Result<HeuristicCheck> {
    let rows = table4(0.9, 0.1)?;
    // Total M1 cost = per-update cost × (card / 100); both factors grow
    // with the substitute size.
    let cards = [2000.0, 3000.0, 4000.0, 5000.0, 6000.0];
    let totals: Vec<f64> = rows
        .iter()
        .zip(cards)
        .map(|(r, c)| r.cost * (c / 100.0))
        .collect();
    let holds = totals.windows(2).all(|w| w[0] < w[1]);
    Ok(HeuristicCheck {
        name: "H4: under M1, smaller substitutes cost less in total".into(),
        holds,
        evidence: format!(
            "total M1 cost V1..V5: {}",
            totals
                .iter()
                .map(|v| format!("{v:.0}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    })
}

/// Runs every heuristic check.
///
/// # Errors
///
/// QC-Model failures.
pub fn all_checks() -> eve_qc::Result<Vec<HeuristicCheck>> {
    Ok(vec![
        h1_fewer_sites_cheaper(),
        h2_closest_size_wins()?,
        h3_messages_grow_with_sites(),
        h4_m1_prefers_small_relations()?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_heuristic_holds() {
        for check in all_checks().unwrap() {
            assert!(check.holds, "{}: {}", check.name, check.evidence);
        }
    }

    #[test]
    fn evidence_is_populated() {
        for check in all_checks().unwrap() {
            assert!(!check.evidence.is_empty());
            assert!(!check.name.is_empty());
        }
    }
}
