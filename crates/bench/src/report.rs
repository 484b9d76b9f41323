//! Canonical text renderings of the paper tables the `repro` binary
//! prints.
//!
//! The tables are shared between `repro` and the golden-file regression
//! tests (`tests/reproduction.rs` + `tests/golden/`), so a pipeline
//! refactor that drifts a digit — or even a column width — fails the build
//! instead of silently rewriting history.

use crate::experiments::{exp4_cardinality, exp5_workload};
use crate::table::{num, TextTable};

/// Table 4 (Experiment 4, case ρ_quality = 0.9 / ρ_cost = 0.1) exactly as
/// `repro exp4` prints it.
///
/// # Errors
///
/// QC-Model failures while reproducing the experiment.
pub fn table4_text() -> eve_qc::Result<String> {
    let mut t = TextTable::new(&[
        "rewriting",
        "DD_attr",
        "DD_ext",
        "DD",
        "cost",
        "cost*",
        "QC",
        "rating",
    ]);
    for r in exp4_cardinality::table4(0.9, 0.1)? {
        t.row(vec![
            r.rewriting,
            num(r.dd_attr, 4),
            num(r.dd_ext, 4),
            num(r.dd, 4),
            num(r.cost, 1),
            num(r.normalized_cost, 2),
            num(r.qc, 5),
            r.rating.to_string(),
        ]);
    }
    Ok(t.render())
}

/// Table 6 (Experiment 5, workload model M3 with u = 10 updates per IS)
/// exactly as `repro exp5` prints it.
#[must_use]
pub fn table6_text() -> String {
    let mut t = TextTable::new(&["sites", "#updates", "CF_M", "CF_T", "CF_IO"]);
    for r in exp5_workload::table6(10.0) {
        t.row(vec![
            r.sites.to_string(),
            num(r.updates, 0),
            num(r.cf_m, 0),
            num(r.cf_t, 0),
            num(r.cf_io, 0),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderings_are_nonempty_and_tabular() {
        let t4 = table4_text().unwrap();
        assert!(t4.lines().count() >= 7, "{t4}"); // header + rule + 5 rows
        assert!(t4.contains("rating"));
        let t6 = table6_text();
        assert!(t6.lines().count() >= 8, "{t6}"); // header + rule + 6 rows
        assert!(t6.contains("CF_IO"));
    }
}
