//! Synchronizer emissions pinned against a reference build:
//! `tests/golden/sync_emissions.txt` was written by the build whose
//! exhaustive search still materialised every child of a node and whose
//! four candidate builders each carried their own SELECT/condition
//! rewrite. Every emission — view text, repair actions and extent
//! relationship, in order — of every run below must come out byte for
//! byte the same.
//!
//! The differential against `synchronize_legacy` (`tests/search_props.rs`)
//! cannot catch a regression in the candidate builders, because the
//! legacy pipeline calls the same builders; this transcript can.
//!
//! Runs per (space, view, change):
//! * `synchronize` (exhaustive) at `max_rewritings` 2 and 64, with the
//!   dispensable-drop spectrum off and on;
//! * `synchronize_heuristic` at widths 1, 2 and 3;
//! * the first three emissions of `synchronize_qc_best_first` under
//!   `QcGuide::auto`.
//!
//! Each distinct emission of a (space, view, change) prints once, and each
//! run as the numbered emissions it produced in order, which keeps the
//! file small.

use std::fmt::Write as _;
use std::path::PathBuf;

use eve::esql::ViewDef;
use eve::misd::{
    AttributeInfo, JoinConstraint, Mkb, PcConstraint, PcRelationship, PcSide, RelationInfo,
    SchemaChange, SiteId,
};
use eve::qc::{synchronize_qc_best_first, QcGuide, QcParams, WorkloadModel};
use eve::relational::{ColumnRef, DataType, PrimitiveClause};
use eve::sync::{synchronize, synchronize_heuristic, HeuristicOptions, SyncOptions, SyncOutcome};

/// One information space, one view and the changes it is synchronized
/// against.
struct Case {
    name: String,
    mkb: Mkb,
    view: ViewDef,
    changes: Vec<SchemaChange>,
}

fn int(name: &str) -> AttributeInfo {
    AttributeInfo::new(name, DataType::Int)
}

fn text(name: &str) -> AttributeInfo {
    AttributeInfo::new(name, DataType::Text)
}

fn relation(mkb: &mut Mkb, name: &str, site: u32, attrs: Vec<AttributeInfo>, card: u64) {
    mkb.register_relation(RelationInfo::new(name, SiteId(site), attrs, card))
        .unwrap();
}

fn pc(mkb: &mut Mkb, left: (&str, &[&str]), rel: PcRelationship, right: (&str, &[&str])) {
    mkb.add_pc_constraint(PcConstraint::new(
        PcSide::projection(left.0, left.1),
        rel,
        PcSide::projection(right.0, right.1),
    ))
    .unwrap();
}

fn jc(mkb: &mut Mkb, left: &str, right: &str, l: &str, r: &str) {
    mkb.add_join_constraint(JoinConstraint::new(
        left,
        right,
        vec![PrimitiveClause::eq(
            ColumnRef::parse(l),
            ColumnRef::parse(r),
        )],
    ))
    .unwrap();
}

fn sites(mkb: &mut Mkb, n: u32) {
    for i in 1..=n {
        mkb.register_site(SiteId(i), format!("IS{i}")).unwrap();
    }
}

fn delete_relation(relation: &str) -> SchemaChange {
    SchemaChange::DeleteRelation {
        relation: relation.into(),
    }
}

fn delete_attribute(relation: &str, attribute: &str) -> SchemaChange {
    SchemaChange::DeleteAttribute {
        relation: relation.into(),
        attribute: attribute.into(),
    }
}

/// The paper's travel agency (§2): customers with a mirrored tour-client
/// source and a participant source that re-supplies the phone number
/// through a join constraint. `columns` names the view's output columns
/// explicitly, which the builders must keep aligned with the SELECT list.
fn travel_agency(columns: &str) -> Case {
    let mut m = Mkb::new();
    sites(&mut m, 4);
    relation(
        &mut m,
        "Customer",
        1,
        vec![text("Name"), text("Address"), text("Phone")],
        300,
    );
    relation(
        &mut m,
        "FlightRes",
        2,
        vec![text("PName"), text("Dest")],
        900,
    );
    relation(
        &mut m,
        "TourClient",
        3,
        vec![text("Client"), text("Residence")],
        350,
    );
    relation(
        &mut m,
        "Participant",
        4,
        vec![text("Who"), text("Tel")],
        500,
    );
    pc(
        &mut m,
        ("Customer", &["Name", "Address"]),
        PcRelationship::Equivalent,
        ("TourClient", &["Client", "Residence"]),
    );
    pc(
        &mut m,
        ("Customer", &["Phone"]),
        PcRelationship::Subset,
        ("Participant", &["Tel"]),
    );
    jc(
        &mut m,
        "Customer",
        "Participant",
        "Customer.Name",
        "Participant.Who",
    );
    let view = eve::esql::parse_view(&format!(
        "CREATE VIEW AsiaCustomer{columns} (VE = '~') AS \
         SELECT C.Name (AR = true), C.Address (AD = true, AR = true), \
                C.Phone (AD = true, AR = true) \
         FROM Customer C (RR = true), FlightRes F (RD = true) \
         WHERE C.Name = F.PName (CD = true, CR = true) AND F.Dest = 'Asia' (CD = true)"
    ))
    .unwrap();
    Case {
        name: format!("travel-agency{columns}"),
        mkb: m,
        view,
        changes: vec![
            delete_relation("Customer"),
            delete_attribute("Customer", "Phone"),
            delete_attribute("Customer", "Address"),
            delete_attribute("Customer", "Name"),
            delete_relation("FlightRes"),
            SchemaChange::RenameAttribute {
                relation: "Customer".into(),
                from: "Name".into(),
                to: "FullName".into(),
            },
            SchemaChange::RenameRelation {
                from: "Customer".into(),
                to: "Client".into(),
            },
        ],
    }
}

/// Experiment 1: R(A,B) with S and T each covering A from above.
fn experiment1() -> Case {
    let mut m = Mkb::new();
    sites(&mut m, 3);
    relation(&mut m, "R", 1, vec![int("A"), int("B")], 400);
    relation(&mut m, "S", 2, vec![int("A"), int("C")], 400);
    relation(&mut m, "T", 3, vec![int("A"), int("D")], 400);
    for s in ["S", "T"] {
        pc(&mut m, ("R", &["A"]), PcRelationship::Subset, (s, &["A"]));
    }
    let view = eve::esql::parse_view(
        "CREATE VIEW V0 (VE = '~') AS \
         SELECT R.A (AD = true, AR = true), R.B (AD = true) FROM R (RR = true)",
    )
    .unwrap();
    Case {
        name: "experiment-1".into(),
        mkb: m,
        view,
        changes: vec![
            delete_attribute("R", "A"),
            delete_attribute("R", "B"),
            delete_relation("R"),
        ],
    }
}

/// Experiment 4: the chain S1 ⊆ S2 ⊆ S3 ≡ R2 ⊆ S4 ⊆ S5.
fn experiment4() -> Case {
    let mut m = Mkb::new();
    sites(&mut m, 6);
    relation(&mut m, "R1", 1, vec![int("K"), int("X")], 400);
    let abc = || vec![int("A"), int("B"), int("C")];
    relation(&mut m, "R2", 1, abc(), 4000);
    for (i, (name, card)) in [
        ("S1", 2000u64),
        ("S2", 3000),
        ("S3", 4000),
        ("S4", 5000),
        ("S5", 6000),
    ]
    .into_iter()
    .enumerate()
    {
        relation(&mut m, name, u32::try_from(i).unwrap() + 2, abc(), card);
    }
    let all: &[&str] = &["A", "B", "C"];
    for (l, rel, r) in [
        ("S1", PcRelationship::Subset, "S2"),
        ("S2", PcRelationship::Subset, "S3"),
        ("S3", PcRelationship::Equivalent, "R2"),
        ("S3", PcRelationship::Subset, "S4"),
        ("S4", PcRelationship::Subset, "S5"),
    ] {
        pc(&mut m, (l, all), rel, (r, all));
    }
    let view = eve::esql::parse_view(
        "CREATE VIEW V (VE = '~') AS \
         SELECT R1.X, R2.A (AR = true), R2.B (AD = true, AR = true), R2.C (AD = true, AR = true) \
         FROM R1, R2 (RR = true) WHERE R1.K = R2.A",
    )
    .unwrap();
    Case {
        name: "experiment-4".into(),
        mkb: m,
        view,
        changes: vec![
            delete_relation("R2"),
            delete_attribute("R2", "B"),
            delete_attribute("R2", "A"),
        ],
    }
}

fn wide_space() -> Case {
    let (mkb, view, change) = eve_bench::fixtures::wide_space(4, 2).unwrap();
    Case {
        name: "wide-space(4,2)".into(),
        mkb,
        view,
        changes: vec![change],
    }
}

/// R(A0,A1), a replica `Rep` covering both attributes and a partial source
/// `Part` re-supplying A0 through the join constraint `R.A1 = Part.K`, both
/// in the containment direction `rel`.
fn sweep_space(rel: PcRelationship) -> Mkb {
    let mut m = Mkb::new();
    sites(&mut m, 3);
    relation(&mut m, "R", 1, vec![int("A0"), int("A1")], 4000);
    relation(&mut m, "Rep", 2, vec![int("A0"), int("A1")], 5000);
    relation(&mut m, "Part", 3, vec![int("P0"), int("K")], 3000);
    pc(&mut m, ("R", &["A0", "A1"]), rel, ("Rep", &["A0", "A1"]));
    pc(&mut m, ("R", &["A0"]), rel, ("Part", &["P0"]));
    jc(&mut m, "R", "Part", "R.A1", "Part.K");
    m
}

/// A 2-binding self-join of R with a literal condition, a join condition
/// and a condition over both attributes of one binding (which `Part` only
/// half covers), every component carrying the flags of `mask` (bits: AD
/// AR CD CR RD RR).
fn sweep_view(mask: u32) -> ViewDef {
    let flag = |bit: u32, name: &str| (mask >> bit & 1 == 1).then(|| format!("{name} = true"));
    let props = |flags: [Option<String>; 2]| -> String {
        let set: Vec<String> = flags.into_iter().flatten().collect();
        if set.is_empty() {
            String::new()
        } else {
            format!(" ({})", set.join(", "))
        }
    };
    let attr = props([flag(0, "AD"), flag(1, "AR")]);
    let cond = props([flag(2, "CD"), flag(3, "CR")]);
    let rel = props([flag(4, "RD"), flag(5, "RR")]);
    eve::esql::parse_view(&format!(
        "CREATE VIEW S{mask} (VE = '~') AS \
         SELECT X.A0 AS C0{attr}, Y.A1 AS C1{attr} \
         FROM R X{rel}, R Y{rel} \
         WHERE X.A0 > 5{cond} AND X.A1 = Y.A1{cond} AND X.A0 < X.A1{cond}"
    ))
    .unwrap()
}

fn sweep() -> Vec<Case> {
    let mut cases = Vec::new();
    for rel in [
        PcRelationship::Subset,
        PcRelationship::Superset,
        PcRelationship::Equivalent,
    ] {
        for mask in 0..64 {
            cases.push(Case {
                name: format!("sweep {rel:?} mask={mask:06b}"),
                mkb: sweep_space(rel),
                view: sweep_view(mask),
                changes: vec![
                    delete_relation("R"),
                    delete_attribute("R", "A0"),
                    SchemaChange::RenameAttribute {
                        relation: "R".into(),
                        from: "A0".into(),
                        to: "A9".into(),
                    },
                    SchemaChange::RenameRelation {
                        from: "R".into(),
                        to: "R9".into(),
                    },
                ],
            });
        }
    }
    cases
}

/// One run's result: whether the view was affected and its emissions,
/// or the error it failed with.
type Run = Result<(bool, Vec<String>), String>;

fn lines(outcome: &SyncOutcome) -> (bool, Vec<String>) {
    let emissions = outcome
        .rewritings
        .iter()
        .map(|rw| {
            format!(
                "{} | {:?} | {:?}",
                rw.view.to_string().replace('\n', " "),
                rw.provenance.actions,
                rw.extent
            )
        })
        .collect();
    (outcome.affected, emissions)
}

fn runs(case: &Case, change: &SchemaChange) -> Vec<(String, Run)> {
    let mut out = Vec::new();
    for max_rewritings in [2usize, 64] {
        for spectrum in [false, true] {
            let options = SyncOptions {
                max_rewritings,
                enumerate_dispensable_drops: spectrum,
            };
            let run = synchronize(&case.view, change, &case.mkb, &options)
                .map(|o| lines(&o))
                .map_err(|e| e.to_string());
            out.push((
                format!("exhaustive max={max_rewritings} spectrum={spectrum}"),
                run,
            ));
        }
    }
    for width in 1..=3 {
        let options = HeuristicOptions {
            max_candidates: width,
            site_weight: 0.7,
        };
        let run = synchronize_heuristic(&case.view, change, &case.mkb, &options)
            .map(|o| lines(&o))
            .map_err(|e| e.to_string());
        out.push((format!("heuristic width={width}"), run));
    }
    let params = QcParams::default();
    let run = QcGuide::auto(&case.view, &case.mkb, &params, WorkloadModel::SingleUpdate)
        .and_then(|guide| {
            synchronize_qc_best_first(
                &case.view,
                change,
                &case.mkb,
                &SyncOptions {
                    max_rewritings: 3,
                    ..SyncOptions::default()
                },
                &guide,
            )
        })
        .map(|(o, _)| lines(&o))
        .map_err(|e| e.to_string());
    out.push(("best-first first=3".into(), run));
    out
}

/// Per (space, view, change): every distinct emission once, numbered in
/// order of first appearance, then each run as the sequence of numbers it
/// emitted.
fn transcript() -> String {
    let mut cases = vec![
        travel_agency(""),
        travel_agency(" (Who, Addr, Tel)"),
        experiment1(),
        experiment4(),
        wide_space(),
    ];
    cases.extend(sweep());
    let mut out = String::new();
    for case in &cases {
        for change in &case.changes {
            let _ = writeln!(out, "== {} | {change:?}", case.name);
            let mut distinct: Vec<String> = Vec::new();
            let mut summaries: Vec<String> = Vec::new();
            for (label, run) in runs(case, change) {
                let summary = match run {
                    Err(e) => format!("error: {e}"),
                    Ok((affected, emissions)) => {
                        let ids: Vec<String> = emissions
                            .into_iter()
                            .map(|line| {
                                let id =
                                    distinct.iter().position(|d| *d == line).unwrap_or_else(|| {
                                        distinct.push(line);
                                        distinct.len() - 1
                                    });
                                format!("e{id}")
                            })
                            .collect();
                        format!("affected={affected} [{}]", ids.join(" "))
                    }
                };
                summaries.push(format!("  {label}: {summary}"));
            }
            for (id, line) in distinct.iter().enumerate() {
                let _ = writeln!(out, "  e{id}: {line}");
            }
            for summary in summaries {
                let _ = writeln!(out, "{summary}");
            }
        }
    }
    out
}

#[test]
fn emissions_match_the_reference_build() {
    let out = transcript();
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sync_emissions.txt");
    let expected = std::fs::read_to_string(&golden).unwrap();
    assert!(
        out == expected,
        "synchronizer emissions diverged from {}; first differing line: {:?}",
        golden.display(),
        out.lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
    );
}
