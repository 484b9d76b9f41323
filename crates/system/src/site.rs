//! Simulated information sources with block-I/O accounting.

use std::collections::BTreeMap;

use eve_misd::SiteId;
use eve_relational::{Relation, Tuple};

use crate::error::{Error, Result};

/// A simulated information source: hosts base relation extents and executes
/// local joins against incoming delta relations, counting block I/Os.
///
/// The I/O accounting mirrors Appendix A's model: each probing delta tuple
/// reads `max(1, ⌈matches / bfr⌉)` blocks of the local relation, and the
/// local optimizer falls back to a full scan (`⌈|R| / bfr⌉` blocks) when
/// probing would be dearer (Eq. 32).
#[derive(Debug, Clone)]
pub struct SimSite {
    /// Site identifier.
    pub id: SiteId,
    /// Human-readable name.
    pub name: String,
    relations: BTreeMap<String, Relation>,
    blocking_factors: BTreeMap<String, u64>,
    io_count: u64,
    message_count: u64,
}

impl SimSite {
    /// Creates an empty site.
    #[must_use]
    pub fn new(id: SiteId, name: impl Into<String>) -> SimSite {
        SimSite {
            id,
            name: name.into(),
            relations: BTreeMap::new(),
            blocking_factors: BTreeMap::new(),
            io_count: 0,
            message_count: 0,
        }
    }

    /// Hosts a relation extent with the given blocking factor.
    ///
    /// # Errors
    ///
    /// [`Error::State`] when the relation name is taken.
    pub fn host(&mut self, relation: Relation, blocking_factor: u64) -> Result<()> {
        let name = relation.name().to_owned();
        if self.relations.contains_key(&name) {
            return Err(Error::State {
                detail: format!("site {} already hosts `{name}`", self.id),
            });
        }
        self.blocking_factors.insert(name.clone(), blocking_factor);
        self.relations.insert(name, relation);
        Ok(())
    }

    /// Drops a hosted relation (capability change `delete-relation`).
    ///
    /// # Errors
    ///
    /// [`Error::State`] when the relation is not hosted here.
    pub fn drop_relation(&mut self, name: &str) -> Result<Relation> {
        self.blocking_factors.remove(name);
        self.relations.remove(name).ok_or_else(|| Error::State {
            detail: format!("site {} does not host `{name}`", self.id),
        })
    }

    /// Immutable access to a hosted relation.
    ///
    /// # Errors
    ///
    /// [`Error::State`] when the relation is not hosted here.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations.get(name).ok_or_else(|| Error::State {
            detail: format!("site {} does not host `{name}`", self.id),
        })
    }

    /// Mutable access to a hosted relation (data updates).
    ///
    /// # Errors
    ///
    /// [`Error::State`] when the relation is not hosted here.
    pub(crate) fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        self.relations.get_mut(name).ok_or_else(|| Error::State {
            detail: format!("site {} does not host `{name}`", self.id),
        })
    }

    /// Names of hosted relations (sorted).
    #[must_use]
    pub fn hosted(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Hosted relation extents, in name order (the columnar/index stats
    /// aggregation seam of the engine).
    pub(crate) fn hosted_relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Hosted relations with their blocking factors, in name order (the
    /// snapshot export seam of the durability layer).
    pub(crate) fn hosted_with_blocking_factors(&self) -> impl Iterator<Item = (&Relation, u64)> {
        self.relations.values().map(|r| {
            (
                r,
                self.blocking_factors.get(r.name()).copied().unwrap_or(10),
            )
        })
    }

    /// Rebuilds a site from snapshot parts: hosted extents with blocking
    /// factors plus the resource-accounting counters as of the snapshot.
    ///
    /// # Errors
    ///
    /// [`Error::State`] on duplicate relation names.
    pub(crate) fn from_parts(
        id: SiteId,
        name: String,
        relations: Vec<(Relation, u64)>,
        io_count: u64,
        message_count: u64,
    ) -> Result<SimSite> {
        let mut site = SimSite::new(id, name);
        for (rel, bfr) in relations {
            site.host(rel, bfr)?;
        }
        site.io_count = io_count;
        site.message_count = message_count;
        Ok(site)
    }

    /// Whether this site hosts `name`.
    #[must_use]
    pub fn hosts(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Total block I/Os performed so far.
    #[must_use]
    pub fn io_count(&self) -> u64 {
        self.io_count
    }

    /// Total messages this site has sent or received so far (update
    /// notifications plus maintenance query/answer pairs).
    #[must_use]
    pub fn message_count(&self) -> u64 {
        self.message_count
    }

    /// Charges `n` messages against this site's accounting.
    pub(crate) fn charge_messages(&mut self, n: u64) {
        self.message_count += n;
    }

    /// Resets the resource accounting — I/O *and* message counters — so
    /// cost reports taken after the reset are comparable regardless of how
    /// the preceding work was scheduled (between experiments).
    pub fn reset_io(&mut self) {
        self.io_count = 0;
        self.message_count = 0;
    }

    /// Charges the I/O cost of probing `relation` with `probe_count` delta
    /// tuples that matched `match_counts` tuples respectively, capped by the
    /// full-scan cost. Returns the number of I/Os charged.
    ///
    /// # Errors
    ///
    /// [`Error::State`] for unhosted relations.
    pub fn charge_probe_io(&mut self, relation: &str, match_counts: &[usize]) -> Result<u64> {
        let rel = self.relation(relation)?;
        let bfr = self
            .blocking_factors
            .get(relation)
            .copied()
            .unwrap_or(10)
            .max(1);
        let full_scan = (rel.cardinality() as u64).div_ceil(bfr);
        let probe: u64 = match_counts
            .iter()
            .map(|&m| (m as u64).div_ceil(bfr).max(1))
            .sum();
        let charged = probe.min(full_scan.max(1));
        self.io_count += charged;
        Ok(charged)
    }

    /// Executes a local full scan, charging its I/O. The returned relation
    /// shares the hosted extent's tuple storage (copy-on-write), so a scan
    /// charges blocks but copies no tuples.
    ///
    /// # Errors
    ///
    /// [`Error::State`] for unhosted relations.
    pub fn scan(&mut self, relation: &str) -> Result<Relation> {
        let bfr = self
            .blocking_factors
            .get(relation)
            .copied()
            .unwrap_or(10)
            .max(1);
        let rel = self.relation(relation)?.clone();
        self.io_count += (rel.cardinality() as u64).div_ceil(bfr);
        Ok(rel)
    }

    /// Applies a data update to a hosted relation: inserts then deletes.
    /// Returns the tuples the delete actually removed; a requested tuple
    /// the relation does not hold is missing from them.
    ///
    /// # Errors
    ///
    /// [`Error::State`] / validation failures. Every insert is validated
    /// before the first mutation, so a failing update changes nothing.
    pub fn apply_update(
        &mut self,
        relation: &str,
        inserts: &[Tuple],
        deletes: &[Tuple],
    ) -> Result<Vec<Tuple>> {
        let rel = self.relation_mut(relation)?;
        for t in inserts {
            rel.validate(t)?;
        }
        for t in inserts {
            rel.insert(t.clone())?;
        }
        Ok(rel.delete(deletes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eve_relational::{tup, DataType, Schema};

    fn site_with_r() -> SimSite {
        let mut s = SimSite::new(SiteId(1), "one");
        let r = Relation::with_tuples(
            "R",
            Schema::of(&[("A", DataType::Int)]).unwrap(),
            (0..25).map(|i| tup![i]).collect(),
        )
        .unwrap();
        s.host(r, 10).unwrap();
        s
    }

    #[test]
    fn hosting_and_lookup() {
        let s = site_with_r();
        assert!(s.hosts("R"));
        assert_eq!(s.hosted(), vec!["R"]);
        assert_eq!(s.relation("R").unwrap().cardinality(), 25);
        assert!(s.relation("Z").is_err());
    }

    #[test]
    fn duplicate_hosting_rejected() {
        let mut s = site_with_r();
        let dup = Relation::empty("R", Schema::of(&[("A", DataType::Int)]).unwrap());
        assert!(s.host(dup, 10).is_err());
    }

    #[test]
    fn scan_charges_full_blocks() {
        let mut s = site_with_r();
        s.scan("R").unwrap();
        assert_eq!(s.io_count(), 3); // ⌈25/10⌉
        s.reset_io();
        assert_eq!(s.io_count(), 0);
    }

    #[test]
    fn scan_shares_extent_storage() {
        let mut s = site_with_r();
        let scanned = s.scan("R").unwrap();
        assert!(
            scanned.shares_tuples_with(s.relation("R").unwrap()),
            "scan must not deep-copy the extent"
        );
    }

    #[test]
    fn reset_clears_io_and_messages_together() {
        let mut s = site_with_r();
        s.scan("R").unwrap();
        s.charge_messages(2);
        assert_eq!(s.message_count(), 2);
        assert!(s.io_count() > 0);
        s.reset_io();
        assert_eq!(s.io_count(), 0);
        assert_eq!(s.message_count(), 0, "messages reset with I/O");
    }

    #[test]
    fn probe_io_caps_at_full_scan() {
        let mut s = site_with_r();
        // Three probes with small match counts: 1 block each.
        let charged = s.charge_probe_io("R", &[2, 1, 0]).unwrap();
        assert_eq!(charged, 3);
        // A flood of probes caps at the full-scan cost.
        let many: Vec<usize> = vec![1; 100];
        let charged = s.charge_probe_io("R", &many).unwrap();
        assert_eq!(charged, 3);
    }

    #[test]
    fn update_application() {
        let mut s = site_with_r();
        s.apply_update("R", &[tup![100]], &[tup![0]]).unwrap();
        let r = s.relation("R").unwrap();
        assert!(r.contains(&tup![100]));
        assert!(!r.contains(&tup![0]));
        assert_eq!(r.cardinality(), 25);
    }

    #[test]
    fn drop_relation_returns_extent() {
        let mut s = site_with_r();
        let r = s.drop_relation("R").unwrap();
        assert_eq!(r.cardinality(), 25);
        assert!(!s.hosts("R"));
        assert!(s.drop_relation("R").is_err());
    }
}
