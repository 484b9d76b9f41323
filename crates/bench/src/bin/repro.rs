//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [exp1|exp2|exp3|exp4|exp5|heuristics|validate|regret|all]
//! ```
//!
//! Exit status: 0 when every selected report rendered, 1 on the first
//! report that failed, 2 on an unknown arm.

use eve_bench::experiments::{
    exp1_survival, exp2_sites, exp3_distribution, exp4_cardinality, exp5_workload, heuristics,
    strategy_regret, validation,
};
use eve_bench::table::{num, TextTable};

type Report = Result<(), Box<dyn std::error::Error>>;
type Arm = (&'static str, fn() -> Report);

/// Every arm, in the order `all` prints them.
const ARMS: [Arm; 8] = [
    ("exp1", exp1),
    ("exp2", exp2),
    ("exp3", exp3),
    ("exp4", exp4),
    ("exp5", exp5),
    ("heuristics", heuristics_report),
    ("validate", validate),
    ("regret", regret),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let selected: Vec<&Arm> = ARMS
        .iter()
        .filter(|(name, _)| arg == "all" || arg == *name)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment `{arg}`");
        eprintln!("usage: repro [exp1|exp2|exp3|exp4|exp5|heuristics|validate|regret|all]");
        std::process::exit(2);
    }
    for (_, report) in selected {
        if let Err(e) = report() {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn exp1() -> Report {
    heading("Experiment 1 — Survival of a View (Figure 12)");
    let mut t = TextTable::new(&["step", "change", "choice (w1 > w2)", "choice (w2 > w1)"]);
    for (i, step) in exp1_survival::figure12().iter().enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            step.change.clone(),
            step.choice_w1.clone().unwrap_or_else(|| "† dead".into()),
            step.choice_w2.clone().unwrap_or_else(|| "† dead".into()),
        ]);
    }
    println!("{}", t.render());
    println!("Survival sweep (changes survived vs replication factor):");
    let mut t = TextTable::new(&["replicas", "survived (w1 > w2)", "survived (w2 > w1)"]);
    for row in exp1_survival::survival_sweep(4) {
        t.row(vec![
            row.replicas.to_string(),
            row.survived_w1.to_string(),
            row.survived_w2.to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn exp2() -> Report {
    heading("Experiment 2 — Relations vs ISs (Tables 1–2, Figure 13)");
    println!("Table 1 parameters: n=6, |R|=400, s=100, σ=0.5, js=0.005, bfr=10\n");
    println!("Table 2 distribution counts:");
    let mut t = TextTable::new(&["sites (m)", "#distributions", "examples"]);
    for (m, dists) in exp2_sites::table2(6) {
        let examples = dists
            .iter()
            .take(3)
            .map(|d| {
                format!(
                    "({})",
                    d.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            m.to_string(),
            dists.len().to_string(),
            examples + " …",
        ]);
    }
    println!("{}", t.render());
    println!("Figure 13 — per-update cost factors (averaged over distributions):");
    let mut t = TextTable::new(&[
        "sites (m)",
        "CF_M (messages)",
        "CF_T (bytes)",
        "CF_IO (lower)",
        "CF_IO (upper)",
    ]);
    for row in exp2_sites::figure13(&exp2_sites::Table1::default()) {
        t.row(vec![
            row.sites.to_string(),
            num(row.messages, 1),
            num(row.bytes, 0),
            num(row.io_lower, 0),
            num(row.io_upper, 0),
        ]);
    }
    println!("{}", t.render());
    println!("Paper shape: messages and bytes increase with m; I/O stays flat (§7.2).");

    println!("\nSensitivity (extension) — avg CF_T by m under varied js and |R|:");
    let mut t = TextTable::new(&["js", "|R|", "m=1", "m=2", "m=3", "m=4", "m=5", "m=6"]);
    for row in exp2_sites::sensitivity(&[0.001, 0.005], &[100.0, 400.0, 1600.0]) {
        let mut cells = vec![format!("{}", row.js), num(row.cardinality, 0)];
        cells.extend(row.bytes_by_sites.iter().map(|b| num(*b, 0)));
        t.row(cells);
    }
    println!("{}", t.render());
    Ok(())
}

fn exp3() -> Report {
    heading("Experiment 3 — Relation Distribution (Figure 14)");
    for js in exp3_distribution::FIG14_JS {
        println!("\nFigure 14, js = {js}:");
        let mut t = TextTable::new(&[
            "sites",
            "distribution",
            "best CF_T",
            "worst CF_T",
            "avg CF_T",
        ]);
        for g in exp3_distribution::figure14(js) {
            t.row(vec![
                g.sites.to_string(),
                g.label,
                num(g.best, 1),
                num(g.worst, 1),
                num(g.average, 1),
            ]);
        }
        println!("{}", t.render());
    }
    println!("Paper shape: js=0.005 favours even distributions, js=0.001 favours skew (§7.3).");
    Ok(())
}

fn exp4() -> Report {
    heading("Experiment 4 — Relation Cardinality (Tables 3–4, Figure 15)");
    println!("Table 3 cardinalities:");
    let mut t = TextTable::new(&["relation", "cardinality"]);
    for (name, card) in exp4_cardinality::TABLE3 {
        t.row(vec![name.to_owned(), card.to_string()]);
    }
    println!("{}", t.render());
    println!("Table 4 — ranking under case 1 (ρ_quality=0.9, ρ_cost=0.1):");
    println!("{}", eve_bench::report::table4_text()?);
    println!("Figure 15 — QC per rewriting across the trade-off cases:");
    let mut t = TextTable::new(&[
        "rewriting",
        "case 1 (0.9/0.1)",
        "case 2 (0.75/0.25)",
        "case 3 (0.5/0.5)",
    ]);
    for (name, qcs) in exp4_cardinality::figure15()? {
        t.row(vec![name, num(qcs[0], 5), num(qcs[1], 5), num(qcs[2], 5)]);
    }
    println!("{}", t.render());
    println!("Paper values (Table 4): QC = 0.9325, 0.94125, 0.95, 0.898, 0.855; V3 best in case 1, V1 in cases 2–3.");
    Ok(())
}

fn exp5() -> Report {
    heading("Experiment 5 — Workload Models (Tables 5–6, Figure 16)");
    println!("Table 5 — workload model M1 (1 update per 100 tuples):");
    let mut t = TextTable::new(&[
        "rewriting",
        "DD",
        "cost/update",
        "#updates",
        "cost*",
        "QC",
        "rating",
    ]);
    for r in exp5_workload::table5()? {
        t.row(vec![
            r.rewriting,
            num(r.dd, 4),
            num(r.cost, 1),
            num(r.updates, 0),
            num(r.normalized_cost, 2),
            num(r.qc, 5),
            r.rating.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Table 6 / Figure 16 — workload model M3 (u = 10 updates per IS):");
    println!("{}", eve_bench::report::table6_text());
    println!("Paper values (Table 6): 30/92/186/312/470/660; 8000..216000; 310..1860 — reproduced exactly.");
    Ok(())
}

fn heuristics_report() -> Report {
    heading("§7.6 — Heuristics validated against the model");
    let mut t = TextTable::new(&["heuristic", "holds", "evidence"]);
    for c in heuristics::all_checks()? {
        t.row(vec![
            c.name,
            if c.holds { "yes" } else { "NO" }.into(),
            c.evidence,
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn validate() -> Report {
    heading("Validation — analytic model vs executed system (extension)");
    println!("Measured (Algorithm 1 on exact-statistics data) vs analytic cost factors:");
    let mut t = TextTable::new(&[
        "distribution",
        "msgs measured",
        "msgs analytic",
        "bytes measured",
        "bytes analytic",
        "io measured",
        "io analytic",
    ]);
    for r in validation::validate_costs()? {
        t.row(vec![
            r.distribution,
            num(r.messages.0, 0),
            num(r.messages.1, 0),
            num(r.bytes.0, 0),
            num(r.bytes.1, 0),
            num(r.io.0, 0),
            num(r.io.1, 0),
        ]);
    }
    println!("{}", t.render());
    println!("Estimated vs measured extent divergence on a materialized containment chain:");
    let mut t = TextTable::new(&["substitute", "DD_ext estimated", "DD_ext measured"]);
    for r in validation::validate_quality(42)? {
        t.row(vec![r.substitute, num(r.estimated, 4), num(r.measured, 4)]);
    }
    println!("{}", t.render());
    println!("Full recomputation vs one incremental update (bytes shipped):");
    let mut t = TextTable::new(&["distribution", "recompute bytes", "incremental bytes"]);
    for r in validation::recompute_vs_incremental()? {
        t.row(vec![
            r.distribution,
            r.recompute_bytes.to_string(),
            r.incremental_bytes.to_string(),
        ]);
    }
    println!("{}", t.render());
    Ok(())
}

fn regret() -> Report {
    heading("Strategy regret — QC-Model vs the pre-QC prototype (extension)");
    let r = strategy_regret::regret_report(60, 2024)?;
    let names = [
        "QC-best",
        "first-found (old prototype)",
        "quality-only",
        "cost-only",
    ];
    let mut t = TextTable::new(&["strategy", "mean QC", "mean regret vs QC-best"]);
    for (i, name) in names.iter().enumerate() {
        t.row(vec![
            (*name).to_owned(),
            num(r.mean_qc[i], 4),
            num(r.mean_regret[i], 4),
        ]);
    }
    println!("{}", t.render());
    println!(
        "first-found misses the best rewriting in {:.0}% of {} trials",
        100.0 * r.first_found_miss_rate,
        r.trials
    );
    println!(
        "heuristic synchronizer: {:.1} candidates generated vs {:.1} exhaustive; \
         best rewriting retained in {:.0}% of trials",
        r.heuristic_candidates,
        r.exhaustive_candidates,
        100.0 * r.heuristic_hit_rate
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::ARMS;

    /// `main` exits 1 on the first failing report; this pins that none of
    /// them fails, including the arms the golden files do not cover.
    #[test]
    fn every_paper_report_succeeds() {
        for (name, report) in ARMS {
            if let Err(e) = report() {
                panic!("repro {name} failed: {e}");
            }
        }
    }
}
