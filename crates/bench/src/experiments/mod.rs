//! Experiment implementations, one module per §7 experiment.

pub mod exp1_survival;
pub mod exp2_sites;
pub mod exp3_distribution;
pub mod exp4_cardinality;
pub mod exp5_workload;
pub mod heuristics;
pub mod strategy_regret;
pub mod validation;
