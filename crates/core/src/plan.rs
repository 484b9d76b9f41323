//! Maintenance plans: the structural input of the cost model (§6.1, Fig. 11).
//!
//! Incremental maintenance of a view after one base-data update walks the
//! involved information sources in order, shipping a growing delta relation
//! (Algorithm 1). A [`MaintenancePlan`] captures everything the cost factors
//! need about that walk: which relation was updated (the origin), which
//! relations share its site (`n_1` peers), and which relations live at the
//! subsequently visited sites.

use eve_esql::ViewDef;
use eve_misd::{Mkb, SiteId};

use crate::error::{Error, Result};

/// Statistics of one relation participating in maintenance.
#[derive(Debug, Clone, PartialEq)]
pub struct RelSpec {
    /// Relation name (for reporting).
    pub name: String,
    /// Cardinality `|R|`.
    pub cardinality: f64,
    /// Tuple size `s_R` in bytes.
    pub tuple_bytes: f64,
    /// Local-condition selectivity `σ`.
    pub selectivity: f64,
    /// Blocking factor `bfr` (tuples per block).
    pub blocking_factor: f64,
    /// Join selectivity `js` used when the delta joins this relation.
    pub join_selectivity: f64,
}

impl RelSpec {
    /// A relation with the paper's Table 1 parameters
    /// (`|R| = 400`, `s = 100`, `σ = 0.5`, `js = 0.005`, `bfr = 10`).
    #[must_use]
    pub(crate) fn table1(name: impl Into<String>) -> RelSpec {
        RelSpec {
            name: name.into(),
            cardinality: 400.0,
            tuple_bytes: 100.0,
            selectivity: 0.5,
            blocking_factor: 10.0,
            join_selectivity: 0.005,
        }
    }
}

/// One information source visited during maintenance, with the view
/// relations it hosts (in join order).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Site identifier.
    pub site: SiteId,
    /// Hosted view relations, in the order the delta joins them.
    pub relations: Vec<RelSpec>,
}

/// The maintenance walk for a single base update.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenancePlan {
    /// The updated relation `R_{1,0}` — supplies the initial delta width and
    /// the origin site/cardinality for workload models.
    pub origin: RelSpec,
    /// Sites in visit order. `sites[0]` is the origin site and lists only
    /// the *other* relations there (the paper's `n_1`); it may be empty.
    pub sites: Vec<SiteSpec>,
}

impl MaintenancePlan {
    /// Builds the uniform-parameter plan of Experiments 2/3/5: `n` relations
    /// distributed over sites as `distribution` (Table 2 rows), the update
    /// originating at the first relation of the first site, every relation
    /// carrying Table 1 statistics except for the supplied `js`.
    ///
    /// # Errors
    ///
    /// [`Error::BadView`] for an empty or zero-containing distribution.
    pub fn uniform(distribution: &[usize], js: f64) -> Result<MaintenancePlan> {
        if distribution.is_empty() || distribution.contains(&0) {
            return Err(Error::BadView {
                detail: "distribution must be non-empty with positive site loads".into(),
            });
        }
        let spec = |name: String| RelSpec {
            join_selectivity: js,
            ..RelSpec::table1(name)
        };
        let mut sites = Vec::with_capacity(distribution.len());
        for (i, &count) in distribution.iter().enumerate() {
            let peers = if i == 0 { count - 1 } else { count };
            let relations = (0..peers)
                .map(|k| spec(format!("R{}_{}", i + 1, k + 1)))
                .collect();
            sites.push(SiteSpec {
                site: SiteId(u32::try_from(i).unwrap_or(u32::MAX) + 1),
                relations,
            });
        }
        Ok(MaintenancePlan {
            origin: spec("R1_0".to_owned()),
            sites,
        })
    }
}

#[allow(clippy::cast_precision_loss)]
fn rel_spec_from_mkb(mkb: &Mkb, relation: &str) -> Result<RelSpec> {
    let info = mkb.relation(relation)?;
    Ok(RelSpec {
        name: info.name.clone(),
        cardinality: info.cardinality as f64,
        tuple_bytes: info.tuple_bytes() as f64,
        selectivity: info.selectivity,
        blocking_factor: info.blocking_factor as f64,
        join_selectivity: mkb.default_join_selectivity(),
    })
}

/// Derives one maintenance plan per possible update origin (each FROM
/// relation of the view), resolving statistics from the MKB.
///
/// The visit order is deterministic: the origin site first, then the
/// remaining sites in ascending site-id order; within a site, relations keep
/// their FROM order. This realizes the §6.1 assumption that sites are never
/// revisited.
///
/// # Errors
///
/// MKB lookups for unregistered relations.
pub fn plans_for_view(view: &ViewDef, mkb: &Mkb) -> Result<Vec<(String, MaintenancePlan)>> {
    // Resolve every FROM relation once.
    let mut resolved: Vec<(String, SiteId, RelSpec)> = Vec::with_capacity(view.from.len());
    for item in &view.from {
        let site = mkb.site_of(&item.relation)?;
        resolved.push((
            item.relation.clone(),
            site,
            rel_spec_from_mkb(mkb, &item.relation)?,
        ));
    }

    let mut plans = Vec::with_capacity(resolved.len());
    for (origin_idx, (origin_name, origin_site, origin_spec)) in resolved.iter().enumerate() {
        // Origin site: peers in FROM order, excluding the updated relation.
        let origin_peers: Vec<RelSpec> = resolved
            .iter()
            .enumerate()
            .filter(|(i, (_, site, _))| *i != origin_idx && site == origin_site)
            .map(|(_, (_, _, spec))| spec.clone())
            .collect();
        let mut sites = vec![SiteSpec {
            site: *origin_site,
            relations: origin_peers,
        }];
        // Remaining sites ascending by id.
        let mut other_sites: Vec<SiteId> = resolved
            .iter()
            .map(|(_, site, _)| *site)
            .filter(|s| s != origin_site)
            .collect();
        other_sites.sort_unstable();
        other_sites.dedup();
        for site in other_sites {
            let relations = resolved
                .iter()
                .filter(|(_, s, _)| *s == site)
                .map(|(_, _, spec)| spec.clone())
                .collect();
            sites.push(SiteSpec { site, relations });
        }
        plans.push((
            origin_name.clone(),
            MaintenancePlan {
                origin: origin_spec.clone(),
                sites,
            },
        ));
    }
    Ok(plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_misd::{AttributeInfo, RelationInfo};
    use eve_relational::DataType;

    #[test]
    fn uniform_plan_shapes() {
        let p = MaintenancePlan::uniform(&[6], 0.005).unwrap();
        assert_eq!(p.sites.len(), 1);
        assert_eq!(p.sites[0].relations.len(), 5);

        let p = MaintenancePlan::uniform(&[1, 5], 0.005).unwrap();
        assert_eq!(p.sites.len(), 2);
        assert!(p.sites[0].relations.is_empty());
        assert_eq!(p.sites[1].relations.len(), 5);
    }

    #[test]
    fn uniform_plan_rejects_bad_distributions() {
        assert!(MaintenancePlan::uniform(&[], 0.005).is_err());
        assert!(MaintenancePlan::uniform(&[2, 0, 1], 0.005).is_err());
    }

    #[test]
    fn uniform_uses_table1_statistics() {
        let p = MaintenancePlan::uniform(&[2], 0.001).unwrap();
        assert_eq!(p.origin.cardinality, 400.0);
        assert_eq!(p.origin.tuple_bytes, 100.0);
        assert_eq!(p.origin.selectivity, 0.5);
        assert_eq!(p.origin.blocking_factor, 10.0);
        assert_eq!(p.origin.join_selectivity, 0.001);
    }

    fn mkb_three_sites() -> Mkb {
        let mut m = Mkb::new();
        for i in 1..=3u32 {
            m.register_site(SiteId(i), format!("IS{i}")).unwrap();
        }
        let attrs = |n: u32| {
            (0..n)
                .map(|k| AttributeInfo::sized(format!("A{k}"), DataType::Int, 50))
                .collect::<Vec<_>>()
        };
        // R and Q share site 1; S on site 2; T on site 3.
        m.register_relation(RelationInfo::new("R", SiteId(1), attrs(2), 400))
            .unwrap();
        m.register_relation(RelationInfo::new("Q", SiteId(1), attrs(2), 500))
            .unwrap();
        m.register_relation(RelationInfo::new("S", SiteId(2), attrs(2), 600))
            .unwrap();
        m.register_relation(RelationInfo::new("T", SiteId(3), attrs(2), 700))
            .unwrap();
        m
    }

    #[test]
    fn plans_for_view_per_origin() {
        let mkb = mkb_three_sites();
        let view = eve_esql::parse_view(
            "CREATE VIEW V AS SELECT R.A0, Q.A0 AS QA, S.A0 AS SA, T.A0 AS TA FROM R, Q, S, T",
        )
        .unwrap();
        let plans = plans_for_view(&view, &mkb).unwrap();
        assert_eq!(plans.len(), 4);

        // Origin R: site 1 peers = [Q]; then sites 2, 3.
        let (name, plan) = &plans[0];
        assert_eq!(name, "R");
        assert_eq!(plan.origin.name, "R");
        assert_eq!(plan.origin.tuple_bytes, 100.0);
        assert_eq!(plan.sites.len(), 3);
        assert_eq!(plan.sites[0].relations.len(), 1);
        assert_eq!(plan.sites[0].relations[0].name, "Q");
        assert_eq!(plan.sites[1].site, SiteId(2));
        assert_eq!(plan.sites[2].site, SiteId(3));

        // Origin S: site 2 first (no peers), then sites 1 and 3.
        let (name, plan) = &plans[2];
        assert_eq!(name, "S");
        assert!(plan.sites[0].relations.is_empty());
        assert_eq!(plan.sites[1].site, SiteId(1));
        assert_eq!(plan.sites[1].relations.len(), 2);
    }

    #[test]
    fn plans_for_view_unknown_relation_errors() {
        let mkb = mkb_three_sites();
        let view = eve_esql::parse_view("CREATE VIEW V AS SELECT Z.A0 FROM Z").unwrap();
        assert!(plans_for_view(&view, &mkb).is_err());
    }
}
