//! Experiment 2 — "Ratio between Relations and ISs" (§7.2, Tables 1–2,
//! Figure 13).
//!
//! Six relations with Table 1 statistics are spread over `m ∈ 1..6`
//! information sources in every possible distribution (Table 2); data
//! updates originate at the first listed site. For each `m` the three cost
//! factors are averaged over the distributions, yielding the Fig. 13 series:
//! messages and bytes grow with the number of sites, I/O stays flat.

use eve_qc::cost::{cf_io, cf_messages, cf_transfer, compositions};
use eve_qc::{IoBound, MaintenancePlan};

/// One Fig. 13 data point: per-`m` averages of the single-update cost
/// factors over all Table 2 distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// Number of information sources `m`.
    pub sites: usize,
    /// Number of Table 2 distributions averaged.
    pub distributions: usize,
    /// Average `CF_M` (update notification included).
    pub messages: f64,
    /// Average `CF_T` in bytes.
    pub bytes: f64,
    /// Average `CF_IO`, Eq. 33 lower bound.
    pub io_lower: f64,
    /// Average `CF_IO`, Eq. 33 upper bound.
    pub io_upper: f64,
}

/// The Table 1 parameter set driving this experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1 {
    /// Total relations `n`.
    pub relations: usize,
    /// Cardinality `|R|` of every relation.
    pub cardinality: f64,
    /// Tuple size `s` in bytes.
    pub tuple_bytes: f64,
    /// Local selectivity `σ`.
    pub selectivity: f64,
    /// Join selectivity `js`.
    pub join_selectivity: f64,
    /// Blocking factor `bfr`.
    pub blocking_factor: f64,
}

impl Default for Table1 {
    fn default() -> Self {
        Table1 {
            relations: 6,
            cardinality: 400.0,
            tuple_bytes: 100.0,
            selectivity: 0.5,
            join_selectivity: 0.005,
            blocking_factor: 10.0,
        }
    }
}

/// Computes the Fig. 13 series for `m = 1 ..= relations`.
#[must_use]
pub fn figure13(params: &Table1) -> Vec<Fig13Row> {
    (1..=params.relations)
        .map(|m| {
            let dists = compositions(params.relations, m);
            let mut messages = 0.0;
            let mut bytes = 0.0;
            let mut io_lower = 0.0;
            let mut io_upper = 0.0;
            for d in &dists {
                let plan = plan_for(d, params);
                messages += cf_messages(&plan, true);
                bytes += cf_transfer(&plan);
                io_lower += cf_io(&plan, IoBound::Lower);
                io_upper += cf_io(&plan, IoBound::Upper);
            }
            #[allow(clippy::cast_precision_loss)]
            let n = dists.len() as f64;
            Fig13Row {
                sites: m,
                distributions: dists.len(),
                messages: messages / n,
                bytes: bytes / n,
                io_lower: io_lower / n,
                io_upper: io_upper / n,
            }
        })
        .collect()
}

/// Builds a maintenance plan for one Table 2 distribution with arbitrary
/// Table 1 parameters (the update originates at the first site's first
/// relation).
#[must_use]
pub(crate) fn plan_for(distribution: &[usize], params: &Table1) -> MaintenancePlan {
    let mut plan = MaintenancePlan::uniform(distribution, params.join_selectivity)
        .expect("valid distribution");
    let patch = |spec: &mut eve_qc::RelSpec| {
        spec.cardinality = params.cardinality;
        spec.tuple_bytes = params.tuple_bytes;
        spec.selectivity = params.selectivity;
        spec.blocking_factor = params.blocking_factor;
    };
    patch(&mut plan.origin);
    for site in &mut plan.sites {
        for rel in &mut site.relations {
            patch(rel);
        }
    }
    plan
}

/// One sensitivity-sweep row (extension): Fig. 13's bytes series under
/// varied join selectivity and cardinality.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Join selectivity swept.
    pub js: f64,
    /// Relation cardinality swept.
    pub cardinality: f64,
    /// Per-`m` average `CF_T` (index 0 = one site).
    pub bytes_by_sites: Vec<f64>,
}

/// Sensitivity of the Fig. 13 bytes-transferred series to `js` and `|R|`:
/// the increasing-with-`m` shape is robust whenever deltas do not shrink
/// (`σ·js·|R| ≥ 1`), and flattens toward the notification floor when they
/// do — quantifying how far the paper's conclusion generalizes beyond
/// Table 1.
#[must_use]
pub fn sensitivity(js_values: &[f64], cards: &[f64]) -> Vec<SensitivityRow> {
    let mut out = Vec::new();
    for &js in js_values {
        for &card in cards {
            let params = Table1 {
                join_selectivity: js,
                cardinality: card,
                ..Table1::default()
            };
            let bytes_by_sites = figure13(&params).into_iter().map(|r| r.bytes).collect();
            out.push(SensitivityRow {
                js,
                cardinality: card,
                bytes_by_sites,
            });
        }
    }
    out
}

/// The Table 2 distribution lists per `m` (for display).
#[must_use]
pub fn table2(relations: usize) -> Vec<(usize, Vec<Vec<usize>>)> {
    (1..=relations)
        .map(|m| (m, compositions(relations, m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_and_bytes_increase_with_sites() {
        // §7.2's finding: "the number of messages exchanged and the number
        // of bytes transferred … both increase when the number of
        // information sources involved in a view increases."
        let rows = figure13(&Table1::default());
        assert_eq!(rows.len(), 6);
        for w in rows.windows(2) {
            assert!(w[0].messages < w[1].messages, "messages not increasing");
            assert!(w[0].bytes < w[1].bytes, "bytes not increasing");
        }
    }

    #[test]
    fn io_is_flat_across_sites() {
        // The I/O factor depends on the number of joins (five), not on the
        // distribution: 31 I/Os per update at the Eq. 33 lower bound.
        let rows = figure13(&Table1::default());
        for r in &rows {
            assert!(
                (r.io_lower - 31.0).abs() < 1e-9,
                "m = {}: {}",
                r.sites,
                r.io_lower
            );
            assert!((r.io_upper - 62.0).abs() < 1e-9);
        }
    }

    #[test]
    fn endpoint_values_match_hand_computation() {
        let rows = figure13(&Table1::default());
        // m = 1: CF_M = 3 (notification + one round trip), CF_T = 800.
        assert!((rows[0].messages - 3.0).abs() < 1e-9);
        assert!((rows[0].bytes - 800.0).abs() < 1e-9);
        // m = 6: CF_M = 11, CF_T = 3600 (single distribution).
        assert!((rows[5].messages - 11.0).abs() < 1e-9);
        assert!((rows[5].bytes - 3600.0).abs() < 1e-9);
        assert_eq!(rows[5].distributions, 1);
    }

    #[test]
    fn table2_row_counts() {
        let t = table2(6);
        let counts: Vec<usize> = t.iter().map(|(_, d)| d.len()).collect();
        assert_eq!(counts, vec![1, 5, 10, 10, 5, 1]);
    }

    #[test]
    fn sensitivity_shape_tracks_delta_growth() {
        let rows = sensitivity(&[0.001, 0.005], &[100.0, 400.0, 1600.0]);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert_eq!(row.bytes_by_sites.len(), 6);
            let growth = 0.5 * row.js * row.cardinality; // σ·js·|R|
            let increasing = row.bytes_by_sites.windows(2).all(|w| w[0] <= w[1] + 1e-9);
            if growth >= 1.0 {
                assert!(increasing, "growth {growth}: {row:?}");
            }
            // All series stay above the notification floor.
            assert!(row.bytes_by_sites.iter().all(|&b| b >= 100.0));
        }
        // Bigger relations cost strictly more at every m (fixed js ≥ 1/σ|R|).
        let small = rows
            .iter()
            .find(|r| r.js == 0.005 && r.cardinality == 400.0)
            .unwrap();
        let big = rows
            .iter()
            .find(|r| r.js == 0.005 && r.cardinality == 1600.0)
            .unwrap();
        for (a, b) in small.bytes_by_sites.iter().zip(&big.bytes_by_sites) {
            assert!(a < b);
        }
    }

    #[test]
    fn message_range_stays_within_section_6_2_bounds() {
        // CF_M ∈ [0, 2m] + 1 notification.
        let rows = figure13(&Table1::default());
        for r in &rows {
            #[allow(clippy::cast_precision_loss)]
            let m = r.sites as f64;
            assert!(r.messages >= 1.0);
            assert!(r.messages <= 2.0 * m + 1.0);
        }
    }
}
