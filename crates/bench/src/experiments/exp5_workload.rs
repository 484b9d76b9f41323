//! Experiment 5 — "Workload Models" (§7.5, Tables 5–6, Figure 16).
//!
//! * **Table 5** (model M1, 1 update per 100 tuples): the number of updates
//!   grows with the substitute's cardinality, but normalization leaves the
//!   per-update ranking — and hence the QC scores — unchanged from Table 4.
//! * **Table 6 / Fig. 16** (model M3, `u = 10` updates per IS): extending
//!   Experiment 2, the totals over a time unit grow super-linearly with the
//!   number of sites, favouring rewritings with few ISs.

use eve_qc::cost::{cf_io, cf_messages, cf_transfer, compositions};
use eve_qc::IoBound;

use super::exp2_sites::{plan_for, Table1};
use super::exp4_cardinality::{table4, Table4Row};

/// One Table 5 row: the M1 workload over the Experiment 4 rewritings.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Rewriting name.
    pub rewriting: String,
    /// Total degree of divergence (unchanged from Table 4).
    pub dd: f64,
    /// Per-update cost (Table 4's cost column).
    pub cost: f64,
    /// Updates per time unit under M1 (1 per 100 tuples of the substitute).
    pub updates: f64,
    /// Normalized cost — identical to Table 4 by §7.5's argument.
    pub normalized_cost: f64,
    /// Efficiency score.
    pub qc: f64,
    /// Rank (1 = best).
    pub rating: usize,
}

/// Computes Table 5: Experiment 4's case 1 with M1 update counts attached
/// (1 update per 100 tuples, §7.5).
///
/// # Errors
///
/// QC-Model failures.
pub fn table5() -> eve_qc::Result<Vec<Table5Row>> {
    let case1: Vec<Table4Row> = table4(0.9, 0.1)?;
    let cards = [2000.0, 3000.0, 4000.0, 5000.0, 6000.0];
    Ok(case1
        .into_iter()
        .zip(cards)
        .map(|(r, card)| Table5Row {
            rewriting: r.rewriting,
            dd: r.dd,
            cost: r.cost,
            updates: card / 100.0,
            normalized_cost: r.normalized_cost,
            qc: r.qc,
            rating: r.rating,
        })
        .collect())
}

/// One Table 6 / Fig. 16 row: per-time-unit totals under M3 for a
/// representative rewriting over `m` sites.
#[derive(Debug, Clone, PartialEq)]
pub struct Table6Row {
    /// Number of sites `m`.
    pub sites: usize,
    /// Total updates per time unit (`u · m`).
    pub updates: f64,
    /// Total messages.
    pub cf_m: f64,
    /// Total bytes transferred.
    pub cf_t: f64,
    /// Total I/O operations (Eq. 33 lower bound, as the paper uses).
    pub cf_io: f64,
}

/// Computes Table 6: for each `m`, `u` updates per IS per time unit, with
/// per-update costs averaged over all Table 2 distributions *and* origin
/// sites (updates under M3 strike every IS).
#[must_use]
pub fn table6(updates_per_site: f64) -> Vec<Table6Row> {
    let params = Table1::default();
    (1..=params.relations)
        .map(|m| {
            let dists = compositions(params.relations, m);
            let mut messages = 0.0;
            let mut bytes = 0.0;
            let mut io = 0.0;
            let mut cases = 0usize;
            for d in &dists {
                for origin_site in 0..m {
                    // Rotate the distribution so the origin site comes
                    // first; remaining sites keep their relative order.
                    let mut rotated: Vec<usize> = Vec::with_capacity(m);
                    rotated.push(d[origin_site]);
                    rotated.extend(
                        d.iter()
                            .enumerate()
                            .filter_map(|(i, &c)| (i != origin_site).then_some(c)),
                    );
                    let plan = plan_for(&rotated, &params);
                    messages += cf_messages(&plan, true);
                    bytes += cf_transfer(&plan);
                    io += cf_io(&plan, IoBound::Lower);
                    cases += 1;
                }
            }
            #[allow(clippy::cast_precision_loss)]
            let avg = |total: f64| total / cases as f64;
            #[allow(clippy::cast_precision_loss)]
            let total_updates = updates_per_site * m as f64;
            Table6Row {
                sites: m,
                updates: total_updates,
                cf_m: total_updates * avg(messages),
                cf_t: total_updates * avg(bytes),
                cf_io: total_updates * avg(io),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_qc::{MaintenancePlan, WorkloadModel};

    #[test]
    fn table6_matches_paper_exactly() {
        // Table 6's six rows, reproduced to the digit.
        let rows = table6(10.0);
        let expected = [
            (1, 10.0, 30.0, 8000.0, 310.0),
            (2, 20.0, 92.0, 27200.0, 620.0),
            (3, 30.0, 186.0, 57600.0, 930.0),
            (4, 40.0, 312.0, 99200.0, 1240.0),
            (5, 50.0, 470.0, 152000.0, 1550.0),
            (6, 60.0, 660.0, 216000.0, 1860.0),
        ];
        assert_eq!(rows.len(), 6);
        for (row, (m, upd, cfm, cft, cfio)) in rows.iter().zip(expected) {
            assert_eq!(row.sites, m);
            assert!((row.updates - upd).abs() < 1e-9, "m={m} updates");
            assert!(
                (row.cf_m - cfm).abs() < 1e-6,
                "m={m}: CF_M {} vs {cfm}",
                row.cf_m
            );
            assert!(
                (row.cf_t - cft).abs() < 1e-6,
                "m={m}: CF_T {} vs {cft}",
                row.cf_t
            );
            assert!(
                (row.cf_io - cfio).abs() < 1e-6,
                "m={m}: CF_IO {} vs {cfio}",
                row.cf_io
            );
        }
    }

    #[test]
    fn table5_normalized_costs_and_qc_unchanged_from_table4() {
        // §7.5: "both the normalized cost factors and hence the final
        // efficiency values are unchanged" under M1.
        let t5 = table5().unwrap();
        let expected_norm = [0.0, 0.25, 0.5, 0.75, 1.0];
        let expected_qc = [0.9325, 0.94125, 0.95, 0.898, 0.855];
        let expected_updates = [20.0, 30.0, 40.0, 50.0, 60.0];
        for (i, row) in t5.iter().enumerate() {
            assert!((row.normalized_cost - expected_norm[i]).abs() < 1e-9);
            assert!((row.qc - expected_qc[i]).abs() < 1e-9);
            assert!((row.updates - expected_updates[i]).abs() < 1e-9);
        }
        // Rating: V3 best, as in Table 4/5.
        assert_eq!(t5.iter().find(|r| r.rating == 1).unwrap().rewriting, "V3");
    }

    #[test]
    fn fig16_totals_grow_superlinearly_with_sites() {
        let rows = table6(10.0);
        // Totals grow faster than linearly: per-update cost itself grows
        // with m, and the update count grows with m.
        for w in rows.windows(2) {
            #[allow(clippy::cast_precision_loss)]
            let scale = w[1].updates / w[0].updates;
            assert!(w[1].cf_t > w[0].cf_t * scale, "{w:?}");
            assert!(w[1].cf_m > w[0].cf_m * scale);
        }
    }

    #[test]
    fn model_update_counts_are_sane() {
        // Updates each §6.6 model assigns to the origin of a uniform plan.
        let plan = MaintenancePlan::uniform(&[3, 3], 0.005).unwrap();
        let at_origin = |m: WorkloadModel| m.updates_at_origin(&plan, 6);
        // M1: 0.01 × 400 = 4 updates at the origin relation.
        let m1 = at_origin(WorkloadModel::TuplesProportional { per_tuple: 0.01 });
        assert!((m1 - 4.0).abs() < 1e-12);
        // M2: flat 10.
        let m2 = at_origin(WorkloadModel::PerRelation { updates: 10.0 });
        assert!((m2 - 10.0).abs() < 1e-12);
        // M3: 10 per site over 3 relations at the origin site.
        let m3 = at_origin(WorkloadModel::PerSite { updates: 10.0 });
        assert!((m3 - 10.0 / 3.0).abs() < 1e-12);
        // M4: 10 total over 6 relations.
        let m4 = at_origin(WorkloadModel::Fixed { updates: 10.0 });
        assert!((m4 - 10.0 / 6.0).abs() < 1e-12);
    }
}
