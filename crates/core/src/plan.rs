//! Maintenance plans: Algorithm 1's walk, derived once (§6.1, Fig. 11).
//!
//! Incremental maintenance of a view after one base-data update walks the
//! involved information sources in order, shipping a growing delta relation
//! (Algorithm 1). A [`MaintenancePlan`] is that walk: the updated relation
//! (the origin), the relations sharing its site (`n_1` peers), and the
//! relations at each subsequently visited site, in join order. Each
//! [`RelSpec`] carries the MKB statistics the cost factors read and the
//! indices of its FROM item and of the WHERE conditions that apply once it
//! has joined.
//!
//! [`plan_for_origin`] is the only derivation of the walk. The cost model
//! prices it, and `eve_system`'s maintainer executes it step by step, so
//! the priced and the executed visit order, site groups and condition
//! placement agree by construction.

use std::iter;

use eve_esql::ViewDef;
use eve_misd::{Mkb, SiteId};

use crate::error::{Error, Result};

/// One relation participating in maintenance: its statistics and its place
/// in the view.
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
    ///
    /// Plans built from the MKB price every join at
    /// [`Mkb::default_join_selectivity`]. A pairwise override
    /// ([`Mkb::set_join_selectivity`]) reaches only the extent divergence
    /// `DD_ext`, not the cost factors.
    pub join_selectivity: f64,
    /// Index of the relation's item in the view's FROM list.
    pub from_item: usize,
    /// Indices into the view's WHERE conditions that apply when this
    /// relation joins the delta, ascending: each condition sits on the
    /// first step at which every binding it names has joined. On the plan's
    /// origin these are the conditions local to the updated relation.
    pub conditions: Vec<usize>,
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
            from_item: 0,
            conditions: Vec::new(),
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
    /// carrying Table 1 statistics except for the supplied `js`. The FROM
    /// list it stands for is the visit order, with no conditions.
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
        let mut from_item = 0;
        let mut spec = |name: String| {
            from_item += 1;
            RelSpec {
                join_selectivity: js,
                from_item: from_item - 1,
                ..RelSpec::table1(name)
            }
        };
        let origin = spec("R1_0".to_owned());
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
        Ok(MaintenancePlan { origin, sites })
    }
}

/// The site and statistics of every FROM item of `view`, in FROM order.
#[allow(clippy::cast_precision_loss)]
fn resolve(view: &ViewDef, mkb: &Mkb) -> Result<Vec<(SiteId, RelSpec)>> {
    let default_js = mkb.default_join_selectivity();
    view.from
        .iter()
        .enumerate()
        .map(|(from_item, item)| {
            let info = mkb.relation(&item.relation)?;
            Ok((
                info.site,
                RelSpec {
                    name: info.name.clone(),
                    cardinality: info.cardinality as f64,
                    tuple_bytes: info.tuple_bytes() as f64,
                    selectivity: info.selectivity,
                    blocking_factor: info.blocking_factor as f64,
                    join_selectivity: default_js,
                    from_item,
                    conditions: Vec::new(),
                },
            ))
        })
        .collect()
}

/// The walk after an update of FROM item `origin`, over resolved items.
///
/// Visit order: the origin site first, then the remaining sites in
/// ascending site-id order; within a site, relations keep their FROM order.
/// This realizes the §6.1 assumption that sites are never revisited.
fn walk(view: &ViewDef, resolved: &[(SiteId, RelSpec)], origin: usize) -> Result<MaintenancePlan> {
    let (origin_site, origin_spec) = resolved.get(origin).ok_or_else(|| Error::BadView {
        detail: format!("view `{}` has no FROM item {origin}", view.name),
    })?;
    let mut order: Vec<SiteId> = resolved
        .iter()
        .map(|(site, _)| *site)
        .filter(|site| site != origin_site)
        .collect();
    order.sort_unstable();
    order.dedup();
    let mut plan = MaintenancePlan {
        origin: origin_spec.clone(),
        sites: iter::once(*origin_site)
            .chain(order)
            .map(|site| SiteSpec {
                site,
                relations: resolved
                    .iter()
                    .filter(|(s, spec)| *s == site && spec.from_item != origin)
                    .map(|(_, spec)| spec.clone())
                    .collect(),
            })
            .collect(),
    };

    // Steps in join order (the origin is step 0), and the step at which
    // each FROM item joins.
    let mut steps: Vec<&mut RelSpec> = iter::once(&mut plan.origin)
        .chain(plan.sites.iter_mut().flat_map(|s| s.relations.iter_mut()))
        .collect();
    let mut joins_at = vec![0; resolved.len()];
    for (step, spec) in steps.iter().enumerate() {
        joins_at[spec.from_item] = step;
    }
    // A column naming no FROM binding (possible only in an unvalidated
    // view) counts as joining last.
    let last = steps.len() - 1;
    for (index, condition) in view.conditions.iter().enumerate() {
        let step = condition
            .clause
            .columns()
            .iter()
            .map(|column| {
                column
                    .qualifier
                    .as_deref()
                    .and_then(|q| view.from.iter().position(|f| f.binding_name() == q))
                    .map_or(last, |item| joins_at[item])
            })
            .max()
            .unwrap_or(0);
        steps[step].conditions.push(index);
    }
    Ok(plan)
}

/// Derives the maintenance plan for an update of the relation at
/// `from_index` in `view.from`, resolving statistics from the MKB.
///
/// # Errors
///
/// MKB lookups for unregistered relations; [`Error::BadView`] when
/// `from_index` is out of range.
pub fn plan_for_origin(view: &ViewDef, mkb: &Mkb, from_index: usize) -> Result<MaintenancePlan> {
    walk(view, &resolve(view, mkb)?, from_index)
}

/// Derives one maintenance plan per possible update origin (each FROM
/// relation of the view, in FROM order), as [`plan_for_origin`] does.
///
/// # Errors
///
/// MKB lookups for unregistered relations.
pub fn plans_for_view(view: &ViewDef, mkb: &Mkb) -> Result<Vec<(String, MaintenancePlan)>> {
    let resolved = resolve(view, mkb)?;
    view.from
        .iter()
        .enumerate()
        .map(|(origin, item)| Ok((item.relation.clone(), walk(view, &resolved, origin)?)))
        .collect()
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

    /// Each step of `plan` in join order, origin first: (relation,
    /// condition indices placed there).
    fn placement(plan: &MaintenancePlan) -> Vec<(&str, Vec<usize>)> {
        iter::once(&plan.origin)
            .chain(plan.sites.iter().flat_map(|s| &s.relations))
            .map(|r| (r.name.as_str(), r.conditions.clone()))
            .collect()
    }

    #[test]
    fn conditions_sit_where_their_last_binding_joins() {
        let mkb = mkb_three_sites();
        // R, Q at site 1; S (bound as X) at site 2; T at site 3.
        let view = eve_esql::parse_view(
            "CREATE VIEW V AS SELECT R.A0 FROM R, Q, S X, T \
             WHERE (R.A1 = 1) AND (T.A0 = X.A0) AND (Q.A0 = T.A1) \
             AND (X.A1 = 2) AND (R.A0 = Q.A1)",
        )
        .unwrap();
        let expected = [
            // Origin R: the local clause 0 stays on R; the join of T with X
            // (clause 1) goes on T, which joins after X.
            vec![
                ("R", vec![0]),
                ("Q", vec![4]),
                ("S", vec![3]),
                ("T", vec![1, 2]),
            ],
            // Origin Q: the same-site join (clause 4) waits for R.
            vec![
                ("Q", vec![]),
                ("R", vec![0, 4]),
                ("S", vec![3]),
                ("T", vec![1, 2]),
            ],
            // Origin S: its local clause 3 sits on the origin.
            vec![
                ("S", vec![3]),
                ("R", vec![0]),
                ("Q", vec![4]),
                ("T", vec![1, 2]),
            ],
            // Origin T: every join to T waits for its other binding.
            vec![
                ("T", vec![]),
                ("R", vec![0]),
                ("Q", vec![2, 4]),
                ("S", vec![1, 3]),
            ],
        ];
        let plans = plans_for_view(&view, &mkb).unwrap();
        for (origin, expected) in expected.iter().enumerate() {
            let plan = plan_for_origin(&view, &mkb, origin).unwrap();
            assert_eq!(&placement(&plan), expected, "origin {origin}");
            assert_eq!(plan, plans[origin].1);
            for step in iter::once(&plan.origin).chain(plan.sites.iter().flat_map(|s| &s.relations))
            {
                assert_eq!(view.from[step.from_item].relation, step.name);
            }
        }
        assert!(plan_for_origin(&view, &mkb, 4).is_err());
    }

    #[test]
    fn plans_for_view_unknown_relation_errors() {
        let mkb = mkb_three_sites();
        let view = eve_esql::parse_view("CREATE VIEW V AS SELECT Z.A0 FROM Z").unwrap();
        assert!(plans_for_view(&view, &mkb).is_err());
    }
}
