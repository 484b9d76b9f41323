//! Deterministic scenario construction for measured-vs-analytic validation.
//!
//! The analytic cost model (Eq. 21/33) predicts delta growth from the
//! declared statistics `σ`, `js`, `|R|`. To compare measured traces against
//! those predictions *exactly*, this module builds information spaces whose
//! data realizes the declared statistics without sampling error:
//!
//! * all relations share a key attribute `K`; every key value appears in
//!   every relation exactly `matches_per_key` times, so an equijoin probe
//!   matches exactly `js·|R| = matches_per_key` tuples;
//! * each relation carries a payload attribute `P` cycling over
//!   `0..1/σ` values, so the local condition `P = 0` selects exactly the
//!   declared fraction `σ`.
//!
//! A chain-join view over such a space has measured maintenance traffic
//! equal to the analytic `CF_T` (and `CF_M`) for every update — the
//! validation experiment reported in EXPERIMENTS.md.

use eve_esql::ViewDef;
use eve_misd::{AttributeInfo, RelationInfo, SiteId};
use eve_relational::{DataType, Relation, Schema, Tuple, Value};
use eve_system::{EveEngine, Result};

/// Parameters of a uniform chain-join scenario.
#[derive(Debug, Clone)]
pub(crate) struct UniformSpaceSpec {
    /// Relations per site (Table 2 distribution); relation `j` of site `i`
    /// is named `R{i}_{j}`, the update origin is `R1_1`.
    pub distribution: Vec<usize>,
    /// Cardinality of every relation (Table 1: 400).
    pub cardinality: usize,
    /// Exact equijoin matches per key (`js·|R|`; Table 1: 2).
    pub matches_per_key: usize,
    /// Inverse selectivity: the local condition keeps one in
    /// `inverse_selectivity` tuples (Table 1 σ = 0.5 ⇒ 2). Zero disables
    /// local conditions (σ = 1).
    pub inverse_selectivity: usize,
    /// Declared byte size of each of the two attributes (Table 1's s = 100
    /// ⇒ 50 each).
    pub attr_bytes: u32,
}

impl Default for UniformSpaceSpec {
    fn default() -> Self {
        UniformSpaceSpec {
            distribution: vec![6],
            cardinality: 400,
            matches_per_key: 2,
            inverse_selectivity: 0,
            attr_bytes: 50,
        }
    }
}

impl UniformSpaceSpec {
    /// The implied declared join selectivity `js = matches_per_key / |R|`.
    #[must_use]
    pub fn join_selectivity(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.matches_per_key as f64 / self.cardinality.max(1) as f64
        }
    }

    /// The implied declared local selectivity `σ`.
    #[must_use]
    pub fn selectivity(&self) -> f64 {
        if self.inverse_selectivity == 0 {
            1.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                1.0 / self.inverse_selectivity as f64
            }
        }
    }
}

/// Builds one relation extent: keys `0 .. card/matches` each repeated
/// `matches` times, payload cycling `0 .. inverse_selectivity`. Column byte
/// sizes carry the *declared* `attr_bytes` so measured transfer volumes use
/// the same widths as the analytic model.
fn build_extent(name: &str, spec: &UniformSpaceSpec) -> Result<Relation> {
    let schema = Schema::new(vec![
        eve_relational::ColumnDef::sized(
            eve_relational::ColumnRef::bare("K"),
            DataType::Int,
            spec.attr_bytes,
        ),
        eve_relational::ColumnDef::sized(
            eve_relational::ColumnRef::bare("P"),
            DataType::Int,
            spec.attr_bytes,
        ),
    ])?;
    let mut rows = Vec::with_capacity(spec.cardinality);
    let matches = spec.matches_per_key.max(1);
    let cycle = spec.inverse_selectivity.max(1);
    for i in 0..spec.cardinality {
        #[allow(clippy::cast_possible_wrap)]
        let key = (i / matches) as i64;
        #[allow(clippy::cast_possible_wrap)]
        let payload = (i % cycle) as i64;
        rows.push(Tuple::new(vec![Value::Int(key), Value::Int(payload)]));
    }
    Ok(Relation::with_tuples(name, schema, rows)?)
}

/// Builds an engine hosting the uniform space and the chain-join view
/// `SELECT R1_1.K FROM … WHERE R1_1.K = R_next.K AND … [AND R.P = 0 …]`.
///
/// Returns the engine and the view definition (not yet registered — callers
/// can materialize it or drive the maintainer directly).
///
/// # Errors
///
/// Construction failures (invalid distribution etc.).
pub(crate) fn build_uniform_space(spec: &UniformSpaceSpec) -> Result<(EveEngine, ViewDef)> {
    let mut engine = EveEngine::new();
    let mut names: Vec<String> = Vec::new();
    for (i, &count) in spec.distribution.iter().enumerate() {
        let site = SiteId(u32::try_from(i).unwrap_or(u32::MAX) + 1);
        engine.add_site(site, format!("IS{}", i + 1))?;
        for j in 0..count {
            let name = format!("R{}_{}", i + 1, j + 1);
            let info = RelationInfo {
                name: name.clone(),
                site,
                attributes: vec![
                    AttributeInfo::sized("K", DataType::Int, spec.attr_bytes),
                    AttributeInfo::sized("P", DataType::Int, spec.attr_bytes),
                ],
                cardinality: spec.cardinality as u64,
                selectivity: spec.selectivity(),
                blocking_factor: 10,
            };
            let extent = build_extent(&name, spec)?;
            engine.register_relation(info, extent)?;
            names.push(name);
        }
    }
    engine
        .mkb_mut()
        .set_default_join_selectivity(spec.join_selectivity());

    // Chain-join view: join every relation to the first on K; optional
    // local conditions (dispensable so rewritings exist).
    let mut sql = String::from("CREATE VIEW Chain (VE = '~') AS SELECT ");
    let select: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, n)| format!("{n}.K AS K{i} (AD = true, AR = true)"))
        .collect();
    sql.push_str(&select.join(", "));
    sql.push_str(" FROM ");
    let from: Vec<String> = names.iter().map(|n| format!("{n} (RR = true)")).collect();
    sql.push_str(&from.join(", "));
    let mut clauses: Vec<String> = names
        .windows(2)
        .map(|w| format!("({}.K = {}.K)", w[0], w[1]))
        .collect();
    if spec.inverse_selectivity > 1 {
        // One local condition per relation except the origin (the analytic
        // model applies σ at the sites the delta visits).
        for n in names.iter().skip(1) {
            clauses.push(format!("({n}.P = 0) (CD = true)"));
        }
    }
    if !clauses.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&clauses.join(" AND "));
    }
    let view = eve_esql::parse_view(&sql)?;
    Ok((engine, view))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_qc::{cost::cost_factors, MaintenancePlan, QcParams};
    use eve_relational::tup;
    use eve_system::maintainer::maintain_view;
    use eve_system::DataUpdate;

    #[test]
    fn extent_realizes_declared_statistics() {
        let spec = UniformSpaceSpec {
            distribution: vec![2],
            cardinality: 400,
            matches_per_key: 2,
            inverse_selectivity: 2,
            ..UniformSpaceSpec::default()
        };
        let r = build_extent("R", &spec).unwrap();
        assert_eq!(r.cardinality(), 400);
        // Each key appears exactly twice.
        let mut counts = std::collections::BTreeMap::new();
        for t in r.tuples() {
            *counts.entry(t.get(0).clone()).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c == 2));
        assert_eq!(counts.len(), 200);
        // P = 0 selects exactly half.
        let zeros = r
            .tuples()
            .iter()
            .filter(|t| t.get(1) == &Value::Int(0))
            .count();
        assert_eq!(zeros, 200);
    }

    #[test]
    fn measured_trace_matches_analytic_cf_exactly() {
        // The flagship validation: for several distributions, executing one
        // single-tuple update through Algorithm 1 produces exactly the
        // analytic CF_M and CF_T (σ = 0.5, js·|R| = 2 realized exactly).
        for distribution in [vec![6], vec![1, 5], vec![3, 3], vec![2, 2, 2]] {
            let spec = UniformSpaceSpec {
                distribution: distribution.clone(),
                inverse_selectivity: 2,
                ..UniformSpaceSpec::default()
            };
            let (mut engine, view) = build_uniform_space(&spec).unwrap();
            let mut extent = engine.evaluate(&view).unwrap();

            // One new tuple with a fresh key that matches… nothing. To get
            // the analytic expectation we insert a tuple with an EXISTING
            // key (key 0), which joins the declared js·|R| tuples per hop.
            let update = DataUpdate::insert("R1_1", vec![tup![0, 0]]);
            let mkb = engine.mkb().clone();
            let trace =
                maintain_view(&view, &mut extent, &update, engine.sites_mut(), &mkb).unwrap();

            let plan = MaintenancePlan::uniform(&distribution, spec.join_selectivity()).unwrap();
            let params = QcParams::default();
            let analytic = cost_factors(&plan, &params);
            #[allow(clippy::cast_precision_loss)]
            let measured_messages = trace.messages as f64;
            assert!(
                (measured_messages - analytic.messages).abs() < 1e-9,
                "{distribution:?}: messages {measured_messages} vs {}",
                analytic.messages
            );
            #[allow(clippy::cast_precision_loss)]
            let measured_bytes = trace.bytes as f64;
            assert!(
                (measured_bytes - analytic.transfer).abs() < 1e-9,
                "{distribution:?}: bytes {measured_bytes} vs {}",
                analytic.transfer
            );
        }
    }

    #[test]
    fn measured_io_matches_analytic_lower_bound_without_selections() {
        // Eq. 33 ignores the local selectivities σ, so its bounds describe
        // the σ = 1 walk. With clustered probes (max(1, ⌈matches/bfr⌉) = 1
        // block per probe) the measured I/O equals the *lower* bound
        // exactly: 1 + 2 + 4 + 8 + 16 = 31 for six Table-1 relations.
        use eve_qc::IoBound;
        for distribution in [vec![6], vec![2, 2, 2], vec![1, 5]] {
            let spec = UniformSpaceSpec {
                distribution: distribution.clone(),
                inverse_selectivity: 0, // σ = 1: no local conditions
                ..UniformSpaceSpec::default()
            };
            let (mut engine, view) = build_uniform_space(&spec).unwrap();
            let mut extent = engine.evaluate(&view).unwrap();
            engine.reset_io();
            let update = DataUpdate::insert("R1_1", vec![tup![0, 0]]);
            let mkb = engine.mkb().clone();
            let trace =
                maintain_view(&view, &mut extent, &update, engine.sites_mut(), &mkb).unwrap();
            let plan = MaintenancePlan::uniform(&distribution, spec.join_selectivity()).unwrap();
            let lower = eve_qc::cost::cf_io(&plan, IoBound::Lower);
            let upper = eve_qc::cost::cf_io(&plan, IoBound::Upper);
            #[allow(clippy::cast_precision_loss)]
            let measured = trace.ios as f64;
            assert!(
                (measured - lower).abs() < 1e-9,
                "{distribution:?}: measured {measured} vs lower {lower}"
            );
            assert!(measured <= upper + 1e-9);
        }
    }

    #[test]
    fn selections_push_measured_io_below_eq33() {
        // With σ = 0.5 the executed walk filters the delta between joins,
        // landing *below* Eq. 33's σ-free lower bound — the analytic model
        // deliberately over-approximates here (documented in EXPERIMENTS.md).
        use eve_qc::IoBound;
        let spec = UniformSpaceSpec {
            distribution: vec![6],
            inverse_selectivity: 2,
            ..UniformSpaceSpec::default()
        };
        let (mut engine, view) = build_uniform_space(&spec).unwrap();
        let mut extent = engine.evaluate(&view).unwrap();
        engine.reset_io();
        let update = DataUpdate::insert("R1_1", vec![tup![0, 0]]);
        let mkb = engine.mkb().clone();
        let trace = maintain_view(&view, &mut extent, &update, engine.sites_mut(), &mkb).unwrap();
        let plan = MaintenancePlan::uniform(&[6], spec.join_selectivity()).unwrap();
        let lower = eve_qc::cost::cf_io(&plan, IoBound::Lower);
        #[allow(clippy::cast_precision_loss)]
        let measured = trace.ios as f64;
        assert!(
            measured < lower,
            "measured {measured} vs σ-free lower {lower}"
        );
    }

    #[test]
    fn join_selectivity_accessor() {
        let spec = UniformSpaceSpec::default();
        assert!((spec.join_selectivity() - 0.005).abs() < 1e-12);
        assert_eq!(spec.selectivity(), 1.0);
        let half = UniformSpaceSpec {
            inverse_selectivity: 2,
            ..UniformSpaceSpec::default()
        };
        assert!((half.selectivity() - 0.5).abs() < 1e-12);
    }
}
