//! Cross-validation (extension beyond the paper's §7): the analytic model
//! against the executed system.
//!
//! 1. **Cost**: run Algorithm 1 on synthetic data whose statistics exactly
//!    realize the declared `σ`/`js` and compare the measured
//!    messages/bytes/I/O against `CF_M`/`CF_T`/`CF_IO`.
//! 2. **Quality**: materialize an Experiment-4-style containment chain with
//!    real data, compute the *measured* `DD_ext` on actual extents, and
//!    compare against the PC-estimated value the QC-Model uses.
//! 3. **Recompute vs incremental**: the \[ZGMHW95\]-flavoured ablation —
//!    bytes shipped by full recomputation vs one incremental update.

use eve_qc::cost::{cf_io, cf_messages, cf_transfer};
use eve_qc::{IoBound, MaintenancePlan, QcParams};
use eve_relational::tup;
use eve_system::maintainer::{maintain_view, recompute_view};
use eve_system::DataUpdate;

use crate::generator::{generate_containment_chain, AttrSpec, RelationSpec};
use crate::scenario::{build_uniform_space, UniformSpaceSpec};

/// One measured-vs-analytic cost comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct CostValidationRow {
    /// Distribution label.
    pub distribution: String,
    /// Measured messages / analytic `CF_M`.
    pub messages: (f64, f64),
    /// Measured bytes / analytic `CF_T`.
    pub bytes: (f64, f64),
    /// Measured I/O / analytic `CF_IO` (lower bound).
    pub io: (f64, f64),
}

/// Runs the cost validation across several distributions (σ = 1 so Eq. 33's
/// σ-free I/O bounds apply exactly).
///
/// # Errors
///
/// Engine/scenario failures.
pub fn validate_costs() -> eve_system::Result<Vec<CostValidationRow>> {
    let mut out = Vec::new();
    for distribution in [
        vec![6],
        vec![1, 5],
        vec![3, 3],
        vec![2, 2, 2],
        vec![1, 1, 1, 1, 1, 1],
    ] {
        let spec = UniformSpaceSpec {
            distribution: distribution.clone(),
            inverse_selectivity: 0, // σ = 1
            ..UniformSpaceSpec::default()
        };
        let (mut engine, view) = build_uniform_space(&spec)?;
        let mut extent = engine.evaluate(&view)?;
        engine.reset_io();
        let mkb = engine.mkb().clone();
        let update = DataUpdate::insert("R1_1", vec![tup![0, 0]]);
        let trace = maintain_view(&view, &mut extent, &update, engine.sites_mut(), &mkb)?;

        let mut plan = MaintenancePlan::uniform(&distribution, spec.join_selectivity())
            .map_err(|e| eve_system::Error::Qc(e.to_string()))?;
        set_selectivity(&mut plan, 1.0);
        let params = QcParams::default();
        #[allow(clippy::cast_precision_loss)]
        out.push(CostValidationRow {
            distribution: distribution
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
            messages: (
                trace.messages as f64,
                cf_messages(&plan, params.count_notification),
            ),
            bytes: (trace.bytes as f64, cf_transfer(&plan)),
            io: (trace.ios as f64, cf_io(&plan, IoBound::Lower)),
        });
    }
    Ok(out)
}

fn set_selectivity(plan: &mut MaintenancePlan, sel: f64) {
    plan.origin.selectivity = sel;
    for site in &mut plan.sites {
        for rel in &mut site.relations {
            rel.selectivity = sel;
        }
    }
}

/// One estimated-vs-measured extent-divergence row.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityValidationRow {
    /// Substitute name.
    pub substitute: String,
    /// PC-estimated `DD_ext` (what the QC-Model uses).
    pub estimated: f64,
    /// `DD_ext` measured on materialized extents.
    pub measured: f64,
}

/// Builds an Experiment-4-like containment chain *with data* and compares
/// estimated vs measured extent divergence for each substitute.
///
/// # Errors
///
/// Generation/measurement failures.
pub fn validate_quality(seed: u64) -> eve_qc::Result<Vec<QualityValidationRow>> {
    // Scaled-down Table 3: cardinalities 200..600, original R2 = S3 = 400.
    let spec = RelationSpec::new(
        "S",
        vec![AttrSpec::new("A", 100_000), AttrSpec::new("B", 100_000)],
        0,
    );
    let chain = generate_containment_chain(&spec, "S", &[200, 300, 400, 500, 600], seed)
        .map_err(eve_qc::Error::Relational)?;
    let r2 = &chain[2]; // S3 ≡ R2
    let params = QcParams::default();
    let mut rows = Vec::new();
    for (i, s) in chain.iter().enumerate() {
        // Measured: D1/D2 on the actual extents (the "view" here is the
        // relation itself — the join factors cancel as in §5.4.3).
        let sizes = eve_qc::quality::ExtentSizes::measured(r2, s)?;
        let measured = sizes.dd_ext(params.rho_d1, params.rho_d2);
        // Estimated: the containment chain pins the overlap exactly.
        let overlap = (s.cardinality().min(r2.cardinality())) as f64;
        #[allow(clippy::cast_precision_loss)]
        let est_sizes = eve_qc::quality::ExtentSizes::new(
            r2.cardinality() as f64,
            s.cardinality() as f64,
            overlap,
        );
        let estimated = est_sizes.dd_ext(params.rho_d1, params.rho_d2);
        rows.push(QualityValidationRow {
            substitute: format!("S{}", i + 1),
            estimated,
            measured,
        });
    }
    Ok(rows)
}

/// Recompute-vs-incremental byte comparison for one uniform scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RecomputeRow {
    /// Distribution label.
    pub distribution: String,
    /// Bytes shipped by a full recomputation.
    pub recompute_bytes: u64,
    /// Bytes shipped by one incremental single-tuple update.
    pub incremental_bytes: u64,
}

/// Measures the \[ZGMHW95\]-style comparison: full recomputation vs one
/// incremental update, in bytes shipped.
///
/// # Errors
///
/// Engine/scenario failures.
pub fn recompute_vs_incremental() -> eve_system::Result<Vec<RecomputeRow>> {
    let mut out = Vec::new();
    for distribution in [vec![2], vec![3, 3], vec![2, 2, 2]] {
        let spec = UniformSpaceSpec {
            distribution: distribution.clone(),
            inverse_selectivity: 0,
            ..UniformSpaceSpec::default()
        };
        let (mut engine, view) = build_uniform_space(&spec)?;
        let mut extent = engine.evaluate(&view)?;
        let mkb = engine.mkb().clone();
        let (_, recompute_trace) = recompute_view(&view, engine.sites_mut(), &mkb)?;
        let update = DataUpdate::insert("R1_1", vec![tup![0, 0]]);
        let inc_trace = maintain_view(&view, &mut extent, &update, engine.sites_mut(), &mkb)?;
        out.push(RecomputeRow {
            distribution: distribution
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
            recompute_bytes: recompute_trace.bytes,
            incremental_bytes: inc_trace.bytes,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_costs_equal_analytic() {
        for row in validate_costs().unwrap() {
            assert!(
                (row.messages.0 - row.messages.1).abs() < 1e-9,
                "{}: messages {:?}",
                row.distribution,
                row.messages
            );
            assert!(
                (row.bytes.0 - row.bytes.1).abs() < 1e-9,
                "{}: bytes {:?}",
                row.distribution,
                row.bytes
            );
            assert!(
                (row.io.0 - row.io.1).abs() < 1e-9,
                "{}: io {:?}",
                row.distribution,
                row.io
            );
        }
    }

    #[test]
    fn estimated_dd_ext_equals_measured_on_containment_chains() {
        // Containment is exact in the generated data, so the PC-based
        // estimate must match the measured divergence exactly.
        for row in validate_quality(42).unwrap() {
            assert!(
                (row.estimated - row.measured).abs() < 1e-9,
                "{}: est {} vs measured {}",
                row.substitute,
                row.estimated,
                row.measured
            );
        }
    }

    #[test]
    fn incremental_is_cheaper_than_recompute() {
        for row in recompute_vs_incremental().unwrap() {
            assert!(row.incremental_bytes < row.recompute_bytes, "{row:?}");
        }
    }
}
