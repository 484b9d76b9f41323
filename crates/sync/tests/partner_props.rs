//! Differential property test of the shared [`PartnerCache`]: a cache
//! carried across synchronizations and MKB mutations must be invisible.
//! The mutations here change the PC-partner closure itself — a replica
//! registered with a new PC constraint joins it, a dropped replica leaves
//! it — so a cache that replays closures from an older MKB generation
//! yields a different rewriting set than a fresh synchronization.

use proptest::prelude::*;

use eve_misd::{
    AttributeInfo, Mkb, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve_relational::DataType;
use eve_sync::synchronizer::synchronize_with;
use eve_sync::{synchronize, PartnerCache, SyncOptions, SyncOutcome};

const RELATIONS: usize = 3;

fn attrs() -> Vec<AttributeInfo> {
    vec![
        AttributeInfo::new("A", DataType::Int),
        AttributeInfo::new("B", DataType::Int),
    ]
}

/// Base relations `R0..` at sites `1..`, each hosting its replicas.
fn space() -> Mkb {
    let mut mkb = Mkb::new();
    for r in 0..RELATIONS {
        let site = SiteId(r as u32 + 1);
        mkb.register_site(site, format!("IS{}", site.0)).unwrap();
        mkb.register_relation(RelationInfo::new(format!("R{r}"), site, attrs(), 400))
            .unwrap();
    }
    mkb
}

/// Registers replica `name` of `R{rel}` with an equivalence constraint —
/// it joins `R{rel}`'s partner closure.
fn add_replica(mkb: &mut Mkb, rel: usize, name: &str) {
    mkb.register_relation(RelationInfo::new(
        name,
        SiteId(rel as u32 + 1),
        attrs(),
        400,
    ))
    .unwrap();
    mkb.add_pc_constraint(PcConstraint::new(
        PcSide::projection(format!("R{rel}"), &["A", "B"]),
        PcRelationship::Equivalent,
        PcSide::projection(name, &["A", "B"]),
    ))
    .unwrap();
}

fn view_over(rel: usize) -> eve_esql::ViewDef {
    eve_esql::parse_view(&format!(
        "CREATE VIEW V (VE = '~') AS \
         SELECT R{rel}.A (AD = true, AR = true), R{rel}.B (AD = true) \
         FROM R{rel} (RR = true) \
         WHERE R{rel}.A > 3 (CD = true)"
    ))
    .unwrap()
}

fn change_for(kind: usize, rel: usize) -> SchemaChange {
    let relation = format!("R{rel}");
    match kind % 4 {
        0 => SchemaChange::DeleteRelation { relation },
        1 => SchemaChange::DeleteAttribute {
            relation,
            attribute: "A".into(),
        },
        2 => SchemaChange::RenameAttribute {
            relation,
            from: "A".into(),
            to: "A2".into(),
        },
        _ => SchemaChange::RenameRelation {
            from: relation,
            to: format!("R{rel}x"),
        },
    }
}

fn texts(o: &SyncOutcome) -> (bool, Vec<(String, String)>) {
    let rewritings = o
        .rewritings
        .iter()
        .map(|r| (r.view.to_string(), r.extent.to_string()))
        .collect();
    (o.affected, rewritings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each step first mutates the MKB (0: nothing, 1: a new replica of
    /// `R{rel}` joins its closure, 2: the oldest live replica of `R{rel}`
    /// is deleted), then synchronizes a view over `R{rel}` through the
    /// shared cache and through a fresh one: both must agree.
    #[test]
    fn shared_partner_cache_is_equivalent_to_a_fresh_one(
        steps in prop::collection::vec((0usize..3, 0usize..4, 0usize..RELATIONS), 1..16),
    ) {
        let mut mkb = space();
        let mut shared = PartnerCache::new();
        let options = SyncOptions::default();
        let mut live: Vec<Vec<String>> = vec![Vec::new(); RELATIONS];
        let mut added = 0usize;
        for (mutation, kind, rel) in steps {
            match mutation {
                1 => {
                    let name = format!("Rep{added}");
                    added += 1;
                    add_replica(&mut mkb, rel, &name);
                    live[rel].push(name);
                }
                2 if !live[rel].is_empty() => {
                    let relation = live[rel].remove(0);
                    mkb.apply_change(&SchemaChange::DeleteRelation { relation }).unwrap();
                }
                _ => {}
            }
            let view = view_over(rel);
            let change = change_for(kind, rel);
            let cached = synchronize_with(&view, &change, &mkb, &options, &mut shared).unwrap();
            let fresh = synchronize(&view, &change, &mkb, &options).unwrap();
            prop_assert_eq!(texts(&cached), texts(&fresh));
        }
        // The cache does cache: within one generation a closure replays.
        let hits = shared.hits();
        let view = view_over(0);
        let change = change_for(0, 0);
        for _ in 0..2 {
            synchronize_with(&view, &change, &mkb, &options, &mut shared).unwrap();
        }
        prop_assert!(shared.hits() > hits);
    }
}
