//! Deterministic workload builders shared by the workspace's differential
//! and recovery suites (`tests/properties.rs`, `tests/search_props.rs`,
//! `tests/durability.rs`, `tests/soak.rs`), so every suite that pins one
//! contract exercises the same information space.
//!
//! Nothing here measures anything: speed belongs to `benchmark/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use eve_esql::ViewDef;
use eve_misd::{
    AttributeInfo, Mkb, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve_relational::{tup, DataType, Relation, RelationStats, Schema, Tuple, Value};
use eve_system::{EveEngine, EvolutionOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Multi-site engine space + seeded op stream (batch ≡ sequential,
// recovered ≡ committed prefix)
// ---------------------------------------------------------------------

fn tuple(k: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::Int(k % 5)])
}

/// Builds the canonical `sites`-site space: per site, relations `R{i}_a`,
/// `R{i}_b` and the equivalent replica `R{i}_c ≡ R{i}_b` (all 40 rows),
/// the join view `V{i} = R{i}_a ⋈ R{i}_b` and the selection view `W{i}`
/// over the replica.
///
/// # Errors
///
/// Engine construction failures.
pub fn build_space(sites: u32) -> eve_system::Result<EveEngine> {
    let mut engine = EveEngine::new();
    let schema = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)])?;
    let attrs = || {
        vec![
            AttributeInfo::new("K", DataType::Int),
            AttributeInfo::new("P", DataType::Int),
        ]
    };
    for i in 1..=sites {
        engine.add_site(SiteId(i), format!("IS{i}"))?;
        for suffix in ["a", "b", "c"] {
            let name = format!("R{i}_{suffix}");
            let rows: Vec<Tuple> = (0..40i64).map(tuple).collect();
            engine.register_relation(
                RelationInfo::new(&name, SiteId(i), attrs(), 10),
                Relation::with_tuples(&name, schema.clone(), rows)?,
            )?;
        }
        engine.mkb_mut().add_pc_constraint(PcConstraint::new(
            PcSide::projection(format!("R{i}_b"), &["K", "P"]),
            PcRelationship::Equivalent,
            PcSide::projection(format!("R{i}_c"), &["K", "P"]),
        ))?;
        engine.define_view_sql(&format!(
            "CREATE VIEW V{i} (VE = '~') AS SELECT A.K, B.P AS BP \
             FROM R{i}_a A, R{i}_b B (RR = true) WHERE A.K = B.K"
        ))?;
        engine.define_view_sql(&format!(
            "CREATE VIEW W{i} (VE = '~') AS SELECT C.K FROM R{i}_c C (RR = true) \
             WHERE C.P = 0 (CD = true)"
        ))?;
    }
    Ok(engine)
}

/// Builds the `sites`-site information space and a seeded `op_count`-op
/// workload over it: data updates (inserts/deletes across all sites)
/// interleaved with capability changes — relation drops repaired by
/// swapping onto the replica, and relation renames.
///
/// # Errors
///
/// Engine construction failures.
pub fn build_workload(
    sites: u32,
    op_count: usize,
    seed: u64,
) -> eve_system::Result<(EveEngine, Vec<EvolutionOp>)> {
    let engine = build_space(sites)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dropped_b = vec![false; sites as usize + 1];
    let mut renamed_a = vec![false; sites as usize + 1];
    let mut ops = Vec::with_capacity(op_count);
    for n in 0..op_count {
        let i = rng.gen_range(1..=sites) as usize;
        // Capability changes roughly every 25th op; the rest is data.
        if n % 25 == 24 {
            if !dropped_b[i] {
                dropped_b[i] = true;
                ops.push(EvolutionOp::change(SchemaChange::DeleteRelation {
                    relation: format!("R{i}_b"),
                }));
                continue;
            }
            if !renamed_a[i] {
                renamed_a[i] = true;
                ops.push(EvolutionOp::change(SchemaChange::RenameRelation {
                    from: format!("R{i}_a"),
                    to: format!("R{i}_ax"),
                }));
                continue;
            }
        }
        let k = rng.gen_range(0i64..200);
        let a = if renamed_a[i] {
            format!("R{i}_ax")
        } else {
            format!("R{i}_a")
        };
        let b = if dropped_b[i] {
            format!("R{i}_c")
        } else {
            format!("R{i}_b")
        };
        match rng.gen_range(0u8..4) {
            0 => ops.push(EvolutionOp::insert(b, vec![tuple(k)])),
            1 => ops.push(EvolutionOp::delete(a, vec![tuple(k % 40)])),
            _ => ops.push(EvolutionOp::insert(a, vec![tuple(k)])),
        }
    }
    Ok((engine, ops))
}

/// The canonical "byte-identical" fingerprint of an engine: its full
/// state under the store's canonical snapshot encoding. Shared by every
/// durability suite so they all pin the same notion of identity.
#[must_use]
pub fn fingerprint(engine: &EveEngine) -> Vec<u8> {
    engine.snapshot_state().to_bytes()
}

/// Groups an op stream into batches of `batch_size` (the last batch may
/// be short).
#[must_use]
pub fn into_batches(ops: Vec<EvolutionOp>, batch_size: usize) -> Vec<Vec<EvolutionOp>> {
    let mut batches = Vec::new();
    let mut current = Vec::with_capacity(batch_size);
    for op in ops {
        current.push(op);
        if current.len() == batch_size {
            batches.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

/// The newest (active) `.evl` log segment in a store directory — the one
/// crash simulations tear. `None` when the directory holds no segment.
///
/// # Errors
///
/// Directory listing failures.
pub fn active_segment(dir: &Path) -> std::io::Result<Option<PathBuf>> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "evl"))
        .collect();
    segments.sort();
    Ok(segments.pop())
}

// ---------------------------------------------------------------------
// View-execution shapes (planned ≡ naive, planner I/O ≡ analytic I/O)
// ---------------------------------------------------------------------

/// A named view-execution workload: extents, declared statistics and the
/// view to evaluate.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// The view under evaluation.
    pub view: ViewDef,
    /// Base extents keyed by relation name.
    pub extents: BTreeMap<String, Relation>,
    /// Declared §6.1 statistics (consistent with the extents).
    pub stats: BTreeMap<String, RelationStats>,
}

fn stats_of(extents: &BTreeMap<String, Relation>) -> BTreeMap<String, RelationStats> {
    extents
        .iter()
        .map(|(name, rel)| (name.clone(), RelationStats::from_relation(rel)))
        .collect()
}

/// Two wide relations whose declared join (on a low-cardinality grouping
/// attribute) explodes quadratically, plus a small, highly selective
/// relation listed *last* in FROM order. The naive left-to-right fold
/// materializes the wide intermediate; the planner starts from the
/// filtered small relation and never builds it.
///
/// # Errors
///
/// Relational construction failures.
pub fn wide_join(scale: i64) -> eve_system::Result<Workload> {
    let groups = 30i64;
    let kp = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)])?;
    let kq = Schema::of(&[("K", DataType::Int), ("Q", DataType::Int)])?;
    let rows_kp = |n: i64| -> Vec<Tuple> { (0..n).map(|k| tup![k, k % groups]).collect() };
    let big1 = Relation::with_tuples("Big1", kp.clone(), rows_kp(scale))?;
    let big2 = Relation::with_tuples("Big2", kp, rows_kp(scale))?;
    let small = Relation::with_tuples(
        "Small",
        kq,
        (0..scale / 10).map(|k| tup![k, k % 50]).collect(),
    )?;
    let mut extents = BTreeMap::new();
    extents.insert("Big1".to_owned(), big1);
    extents.insert("Big2".to_owned(), big2);
    extents.insert("Small".to_owned(), small);
    let stats = stats_of(&extents);
    let view = eve_esql::parse_view(
        "CREATE VIEW Wide AS SELECT A.K, B.K AS BK \
         FROM Big1 A, Big2 B, Small S \
         WHERE A.P = B.P AND A.K = S.K AND S.Q = 0",
    )?;
    Ok(Workload {
        name: format!("wide_join/{scale}"),
        view,
        extents,
        stats,
    })
}

/// A uniform chain join — both evaluators pick essentially the same plan.
///
/// # Errors
///
/// Relational construction failures.
pub(crate) fn chain_join(scale: i64) -> eve_system::Result<Workload> {
    let schema = Schema::of(&[("K", DataType::Int), ("P", DataType::Int)])?;
    let mut extents = BTreeMap::new();
    for name in ["C1", "C2", "C3"] {
        extents.insert(
            name.to_owned(),
            Relation::with_tuples(
                name,
                schema.clone(),
                (0..scale).map(|k| tup![k, k]).collect(),
            )?,
        );
    }
    let stats = stats_of(&extents);
    let view = eve_esql::parse_view(
        "CREATE VIEW Chain AS SELECT A.K FROM C1 A, C2 B, C3 C \
         WHERE A.K = B.K AND B.K = C.K",
    )?;
    Ok(Workload {
        name: format!("chain_join/{scale}"),
        view,
        extents,
        stats,
    })
}

/// A star join whose selective dimension is listed *last* in FROM order
/// (mildly adversarial for the naive fold: it joins the full fact table
/// before the filter bites). The declared statistics carry the *accurate*
/// selectivity of the dimension filter — the §6.1 contract that the MKB's
/// registered σ describes the relation's condition.
///
/// # Errors
///
/// Relational construction failures.
#[allow(clippy::missing_panics_doc)]
pub(crate) fn star_join(scale: i64) -> eve_system::Result<Workload> {
    let fact_schema = Schema::of(&[("D1", DataType::Int), ("D2", DataType::Int)])?;
    let dim_schema = Schema::of(&[("Id", DataType::Int), ("Tag", DataType::Int)])?;
    let mut extents = BTreeMap::new();
    extents.insert(
        "Fact".to_owned(),
        Relation::with_tuples(
            "Fact",
            fact_schema,
            (0..scale).map(|k| tup![k % 100, k % 25]).collect(),
        )?,
    );
    extents.insert(
        "Dim1".to_owned(),
        Relation::with_tuples(
            "Dim1",
            dim_schema.clone(),
            (0..100i64).map(|k| tup![k, k % 4]).collect(),
        )?,
    );
    extents.insert(
        "Dim2".to_owned(),
        Relation::with_tuples(
            "Dim2",
            dim_schema,
            (0..25i64).map(|k| tup![k, k % 5]).collect(),
        )?,
    );
    let mut stats = stats_of(&extents);
    // Dim2's condition (`Tag = 0` over Tag = k % 5) keeps 1 in 5 tuples.
    stats.get_mut("Dim2").expect("registered").selectivity = 0.2;
    let view = eve_esql::parse_view(
        "CREATE VIEW Star AS SELECT F.D1, Dim1.Tag AS T1 \
         FROM Fact F, Dim1, Dim2 \
         WHERE F.D1 = Dim1.Id AND F.D2 = Dim2.Id AND Dim2.Tag = 0",
    )?;
    Ok(Workload {
        name: format!("star_join/{scale}"),
        view,
        extents,
        stats,
    })
}

/// The three view-execution shapes at their canonical scales.
///
/// # Errors
///
/// Construction failures.
pub fn workloads() -> eve_system::Result<Vec<Workload>> {
    Ok(vec![wide_join(1500)?, star_join(4000)?, chain_join(2000)?])
}

// ---------------------------------------------------------------------
// Wide MKB (branch-and-bound vs exhaustive candidate counts)
// ---------------------------------------------------------------------

/// Builds the wide information space: `Source(A,B)` plus `partners` PC
/// partners, referenced by a self-join view with `bindings` FROM
/// bindings, and the `delete-relation Source` change that opens a
/// candidate space of `partners^bindings` combinations. Partner 0 is an
/// equivalent same-size replica; partner `j > 0` is a substitute of
/// growing size (alternating containment direction) at its own site —
/// divergent in both QC dimensions, so the search's best path is unique.
///
/// # Errors
///
/// MKB registration failures.
pub fn wide_space(
    partners: usize,
    bindings: usize,
) -> eve_qc::Result<(Mkb, ViewDef, SchemaChange)> {
    let mut mkb = Mkb::new();
    let attrs = || {
        vec![
            AttributeInfo::sized("A", DataType::Int, 50),
            AttributeInfo::sized("B", DataType::Int, 50),
        ]
    };
    mkb.register_site(SiteId(1), "hub")?;
    mkb.register_relation(RelationInfo::new("Source", SiteId(1), attrs(), 4000))?;
    for j in 0..partners {
        let site = SiteId(u32::try_from(j).unwrap_or(u32::MAX) + 2);
        mkb.register_site(site, format!("mirror-{j}"))?;
        let name = format!("Rep{j}");
        let (relationship, card) = if j == 0 {
            (PcRelationship::Equivalent, 4000)
        } else if j % 2 == 1 {
            // Source ⊆ Rep: ever larger supersets.
            (PcRelationship::Subset, 4000 + 2000 * j as u64)
        } else {
            // Source ⊇ Rep: ever smaller subsets.
            (PcRelationship::Superset, 4000 / (j as u64 + 1))
        };
        mkb.register_relation(RelationInfo::new(&name, site, attrs(), card))?;
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("Source", &["A", "B"]),
            relationship,
            PcSide::projection(&name, &["A", "B"]),
        ))?;
    }
    let select: Vec<String> = (0..bindings)
        .map(|i| format!("X{i}.B AS B{i} (AR = true)"))
        .collect();
    let from: Vec<String> = (0..bindings)
        .map(|i| format!("Source X{i} (RR = true)"))
        .collect();
    let conds: Vec<String> = (1..bindings)
        .map(|i| format!("X{}.A = X{i}.A", i - 1))
        .collect();
    let where_clause = if conds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conds.join(" AND "))
    };
    let view = eve_esql::parse_view(&format!(
        "CREATE VIEW Wide (VE = '~') AS SELECT {} FROM {}{}",
        select.join(", "),
        from.join(", "),
        where_clause
    ))
    .map_err(|e| eve_qc::Error::BadView {
        detail: e.to_string(),
    })?;
    let change = SchemaChange::DeleteRelation {
        relation: "Source".into(),
    };
    Ok((mkb, view, change))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_per_seed() {
        let (_, a) = build_workload(4, 30, 42).unwrap();
        let (_, b) = build_workload(4, 30, 42).unwrap();
        let fmt =
            |ops: &[EvolutionOp]| -> Vec<String> { ops.iter().map(|o| format!("{o:?}")).collect() };
        assert_eq!(fmt(&a), fmt(&b));
    }

    #[test]
    fn batching_is_exact() {
        let ops: Vec<EvolutionOp> = (0..7)
            .map(|k| EvolutionOp::insert("R", vec![tup![k]]))
            .collect();
        let batches = into_batches(ops, 3);
        assert_eq!(batches.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3, 1]);
    }
}
