//! Strategy regret (extension): how much efficiency does EVE's old
//! "first legal rewriting found" behaviour leave on the table compared to
//! QC-Model selection — the quantitative case for the paper's contribution
//! (§8: the prototype "had previously simply picked the first legal view
//! rewriting it discovered and not necessarily the best one").
//!
//! Over a family of seeded random information spaces, each trial:
//!
//! 1. builds a space with replicas of varying size/placement and PC
//!    constraints of varying direction,
//! 2. deletes the view's source relation,
//! 3. ranks all legal rewritings with the QC-Model,
//! 4. records the QC score achieved by each selection strategy, and the
//!    candidates examined by the heuristic (pruned) synchronizer versus the
//!    exhaustive one.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eve_esql::ViewDef;
use eve_misd::{
    AttributeInfo, Mkb, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve_qc::{rank_rewritings, QcParams, SelectionStrategy, WorkloadModel};
use eve_relational::DataType;
use eve_sync::{synchronize, synchronize_heuristic, HeuristicOptions, SyncOptions};

/// Aggregate outcome over the trial family.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretReport {
    /// Trials that produced at least one legal rewriting.
    pub trials: usize,
    /// Mean QC achieved by each strategy (same order as [`STRATEGIES`]).
    pub mean_qc: [f64; 4],
    /// Mean regret vs QC-best (same order).
    pub mean_regret: [f64; 4],
    /// Fraction of trials where first-found missed the QC-best rewriting.
    pub first_found_miss_rate: f64,
    /// Mean candidates generated by the exhaustive synchronizer.
    pub exhaustive_candidates: f64,
    /// Mean candidates generated by the heuristic synchronizer (cap 3).
    pub heuristic_candidates: f64,
    /// Fraction of trials where the heuristic's best candidate attains the
    /// exhaustive QC-best score.
    pub heuristic_hit_rate: f64,
}

/// The strategies compared, in report order.
pub(crate) const STRATEGIES: [SelectionStrategy; 4] = [
    SelectionStrategy::QcBest,
    SelectionStrategy::FirstFound,
    SelectionStrategy::QualityOnly,
    SelectionStrategy::CostOnly,
];

/// Builds one random trial space: a two-relation view whose second relation
/// has 2–6 replicas with random sizes, sites and containment directions.
fn trial_space(rng: &mut StdRng) -> (Mkb, ViewDef) {
    let mut mkb = Mkb::new();
    let replicas = rng.gen_range(2..=6usize);
    for i in 1..=(replicas as u32 + 2) {
        mkb.register_site(SiteId(i), format!("IS{i}")).unwrap();
    }
    let attrs = || {
        vec![
            AttributeInfo::sized("A", DataType::Int, 50),
            AttributeInfo::sized("B", DataType::Int, 50),
        ]
    };
    mkb.register_relation(RelationInfo::new("Base", SiteId(1), attrs(), 400))
        .unwrap();
    let target_card = rng.gen_range(500..5000u64);
    mkb.register_relation(RelationInfo::new("Source", SiteId(2), attrs(), target_card))
        .unwrap();
    for r in 0..replicas {
        let name = format!("Rep{r}");
        // Random placement: sometimes colocated with Base, sometimes fresh.
        let site = if rng.gen_bool(0.3) {
            SiteId(1)
        } else {
            SiteId(u32::try_from(r).unwrap() + 3)
        };
        let (rel, card) = match rng.gen_range(0..3u8) {
            0 => (
                PcRelationship::Subset, // Source ⊆ Rep (superset replica)
                target_card + rng.gen_range(1..3000u64),
            ),
            1 => (
                PcRelationship::Superset, // Source ⊇ Rep (subset replica)
                rng.gen_range(100..target_card.max(101)),
            ),
            _ => (PcRelationship::Equivalent, target_card),
        };
        mkb.register_relation(RelationInfo::new(&name, site, attrs(), card))
            .unwrap();
        mkb.add_pc_constraint(PcConstraint::new(
            PcSide::projection("Source", &["A", "B"]),
            rel,
            PcSide::projection(&name, &["A", "B"]),
        ))
        .unwrap();
    }
    let view = eve_esql::parse_view(
        "CREATE VIEW V (VE = '~') AS \
         SELECT Base.A, Source.B AS SB (AD = true, AR = true) \
         FROM Base, Source (RR = true) \
         WHERE Base.A = Source.A",
    )
    .unwrap();
    (mkb, view)
}

/// Runs `trials` seeded trials and aggregates the regret statistics.
///
/// # Errors
///
/// QC-Model failures.
pub fn regret_report(trials: usize, seed: u64) -> eve_qc::Result<RegretReport> {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = QcParams::default();
    let change = SchemaChange::DeleteRelation {
        relation: "Source".into(),
    };

    let mut qc_sums = [0.0f64; 4];
    let mut regret_sums = [0.0f64; 4];
    let mut misses = 0usize;
    let mut counted = 0usize;
    let mut exhaustive_total = 0usize;
    let mut heuristic_total = 0usize;
    let mut heuristic_hits = 0usize;

    for _ in 0..trials {
        let (mkb, view) = trial_space(&mut rng);
        let outcome = synchronize(&view, &change, &mkb, &SyncOptions::default()).map_err(|e| {
            eve_qc::Error::BadView {
                detail: e.to_string(),
            }
        })?;
        if outcome.rewritings.is_empty() {
            continue;
        }
        let scored = rank_rewritings(
            &view,
            &outcome.rewritings,
            &mkb,
            &params,
            WorkloadModel::SingleUpdate,
        )?;
        let best_qc = scored[0].qc;
        counted += 1;
        exhaustive_total += scored.len();
        for (i, strategy) in STRATEGIES.iter().enumerate() {
            let pick = strategy.select(&scored).expect("non-empty");
            qc_sums[i] += pick.qc;
            regret_sums[i] += best_qc - pick.qc;
        }
        if SelectionStrategy::FirstFound
            .select(&scored)
            .expect("non-empty")
            .qc
            < best_qc - 1e-12
        {
            misses += 1;
        }

        // Heuristic synchronizer: does its small candidate set contain a
        // QC-best-equivalent rewriting?
        let pruned = synchronize_heuristic(&view, &change, &mkb, &HeuristicOptions::default())
            .map_err(|e| eve_qc::Error::BadView {
                detail: e.to_string(),
            })?;
        heuristic_total += pruned.rewritings.len();
        if !pruned.rewritings.is_empty() {
            let pruned_scored = rank_rewritings(
                &view,
                &pruned.rewritings,
                &mkb,
                &params,
                WorkloadModel::SingleUpdate,
            )?;
            // Normalization differs across candidate sets; compare on the
            // quality dimension plus raw cost ordering instead: a hit means
            // the heuristic set contains a rewriting with the same DD and
            // raw cost as the exhaustive winner.
            let winner = &scored[0];
            let hit = pruned_scored.iter().any(|s| {
                (s.divergence.dd - winner.divergence.dd).abs() < 1e-9
                    && (s.cost - winner.cost).abs() < 1e-6
            });
            if hit {
                heuristic_hits += 1;
            }
        }
    }

    #[allow(clippy::cast_precision_loss)]
    let n = counted.max(1) as f64;
    Ok(RegretReport {
        trials: counted,
        mean_qc: qc_sums.map(|s| s / n),
        mean_regret: regret_sums.map(|s| s / n),
        #[allow(clippy::cast_precision_loss)]
        first_found_miss_rate: misses as f64 / n,
        #[allow(clippy::cast_precision_loss)]
        exhaustive_candidates: exhaustive_total as f64 / n,
        #[allow(clippy::cast_precision_loss)]
        heuristic_candidates: heuristic_total as f64 / n,
        #[allow(clippy::cast_precision_loss)]
        heuristic_hit_rate: heuristic_hits as f64 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qc_best_dominates_every_other_strategy() {
        let report = regret_report(40, 7).unwrap();
        assert!(report.trials >= 30, "enough productive trials");
        // QC-best regret is zero by construction.
        assert!(report.mean_regret[0].abs() < 1e-12);
        // Every other strategy has non-negative regret; first-found and the
        // single-dimension corners are strictly worse on average.
        for i in 1..4 {
            assert!(report.mean_regret[i] >= 0.0);
            assert!(report.mean_qc[i] <= report.mean_qc[0] + 1e-12);
        }
        assert!(
            report.first_found_miss_rate > 0.1,
            "the old prototype's pick should miss the best rewriting \
             regularly (rate {})",
            report.first_found_miss_rate
        );
    }

    #[test]
    fn heuristic_explores_fewer_candidates_with_high_hit_rate() {
        let report = regret_report(40, 11).unwrap();
        assert!(
            report.heuristic_candidates < report.exhaustive_candidates,
            "{} vs {}",
            report.heuristic_candidates,
            report.exhaustive_candidates
        );
        assert!(
            report.heuristic_hit_rate > 0.6,
            "heuristic should usually retain the best rewriting \
             (rate {})",
            report.heuristic_hit_rate
        );
    }

    #[test]
    fn report_is_deterministic_per_seed() {
        let a = regret_report(10, 3).unwrap();
        let b = regret_report(10, 3).unwrap();
        assert_eq!(a, b);
        let c = regret_report(10, 4).unwrap();
        assert_ne!(a, c);
    }
}
