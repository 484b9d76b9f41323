//! The four seeded workloads: tenant states and per-client op streams.
//!
//! Every workload carries all three latency classes (reads, writes,
//! capability changes) so one set of end-to-end metrics is defined on all
//! of them; what differs is the mix, the data shape, and therefore the
//! layer that does the work (see `README.md`).
//!
//! Capability changes depend on which relation a view is hosted on *after*
//! the previous rewriting, which only the engine can say. The generator
//! therefore steps every change through a data-free model engine (same MKB
//! statistics, empty extents — the rewrite search and the QC ranking read
//! statistics only) to learn the next host, so the op stream is fixed
//! before the served program sees its first request.

use eve_misd::{
    AttributeInfo, PcConstraint, PcRelationship, PcSide, RelationInfo, SchemaChange, SiteId,
};
use eve_relational::{tup, ColumnDef, ColumnRef, DataType, IndexKind, Relation, Schema, Tuple};
use eve_sync::EvolutionOp;
use eve_system::EveEngine;

use crate::ops::Op;
use crate::rng::Rng;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Single-tuple updates, one tenant per client: store + maintainer.
    UpdateStream,
    /// Large-extent queries on one shared tenant: codec + formatting.
    ReadMostly,
    /// Survival chains over replicated families: sync + core + misd.
    EvolveStorm,
    /// Recomputes over large relations: relational + maintainer.
    Rematerialize,
}

impl Kind {
    /// All workloads, in suite order.
    pub const ALL: [Kind; 4] = [
        Kind::UpdateStream,
        Kind::ReadMostly,
        Kind::EvolveStorm,
        Kind::Rematerialize,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::UpdateStream => "update-stream",
            Kind::ReadMostly => "read-mostly",
            Kind::EvolveStorm => "evolve-storm",
            Kind::Rematerialize => "rematerialize",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How large to make a workload: `Full` is what `BENCHMARK.json` measures,
/// `Smoke` is the seconds-long size the tests and `--smoke` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A small size with the same structure.
    Smoke,
}

/// One tenant's pre-built state: everything `EveEngine::register_relation`
/// and friends need, kept as data so the served tenant, the serial oracle
/// and every ladder replica are built from the same description.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    /// Tenant (directory) name.
    pub name: String,
    /// Sites, by id.
    pub sites: Vec<u32>,
    /// Base relations with their extents.
    pub relations: Vec<(RelationInfo, Relation)>,
    /// PC constraints.
    pub pcs: Vec<PcConstraint>,
    /// Declared hash indexes `(relation, column)`.
    pub indexes: Vec<(String, String)>,
    /// View definitions (E-SQL), materialized at build time.
    pub views: Vec<String>,
    /// Intra-query parallelism of the tenant's executor.
    pub parallelism: usize,
    /// A view no generated change can kill: what the restart phase queries.
    pub probe_view: String,
}

impl TenantPlan {
    fn new(name: &str, probe_view: &str) -> TenantPlan {
        TenantPlan {
            name: name.to_owned(),
            probe_view: probe_view.to_owned(),
            sites: Vec::new(),
            relations: Vec::new(),
            pcs: Vec::new(),
            indexes: Vec::new(),
            views: Vec::new(),
            parallelism: 1,
        }
    }

    /// Builds the tenant's engine state.
    ///
    /// # Errors
    ///
    /// The first registration or view-definition failure (a generator bug).
    pub fn build(&self) -> Result<EveEngine, String> {
        self.build_inner(true)
    }

    /// The data-free model of the tenant: same MKB, empty extents.
    fn build_model(&self) -> Result<EveEngine, String> {
        self.build_inner(false)
    }

    fn build_inner(&self, with_data: bool) -> Result<EveEngine, String> {
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", self.name);
        let mut engine = EveEngine::new();
        for site in &self.sites {
            engine
                .add_site(SiteId(*site), format!("site{site}"))
                .map_err(|e| fail("add_site", &e))?;
        }
        for (info, extent) in &self.relations {
            let extent = if with_data {
                extent.clone()
            } else {
                Relation::empty(info.name.clone(), extent.schema().clone())
            };
            engine
                .register_relation(info.clone(), extent)
                .map_err(|e| fail("register_relation", &e))?;
        }
        for pc in &self.pcs {
            engine
                .mkb_mut()
                .add_pc_constraint(pc.clone())
                .map_err(|e| fail("add_pc_constraint", &e))?;
        }
        for (relation, column) in &self.indexes {
            engine
                .declare_index(relation, column, IndexKind::Hash)
                .map_err(|e| fail("declare_index", &e))?;
        }
        for sql in &self.views {
            engine
                .define_view_sql(sql)
                .map_err(|e| fail("define_view", &e))?;
        }
        Ok(engine)
    }

    fn add_site(&mut self, site: u32) {
        if !self.sites.contains(&site) {
            self.sites.push(site);
        }
    }

    fn add_relation(
        &mut self,
        name: &str,
        site: u32,
        columns: &[(&str, DataType)],
        rows: Vec<Tuple>,
    ) {
        self.add_site(site);
        let attributes = columns
            .iter()
            .map(|(n, ty)| AttributeInfo::new(*n, *ty))
            .collect();
        let info = RelationInfo::new(name, SiteId(site), attributes, rows.len() as u64);
        let schema = Schema::new(
            info.attributes
                .iter()
                .map(|a| ColumnDef::sized(ColumnRef::bare(a.name.clone()), a.ty, a.byte_size))
                .collect(),
        )
        .expect("generated column names are unique");
        let extent =
            Relation::with_tuples(name, schema, rows).expect("generated rows match their schema");
        self.relations.push((info, extent));
    }
}

/// One client's connection: the tenant it opens a session on and the
/// requests it sends, in order.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    /// Index into [`Workload::tenants`].
    pub tenant: usize,
    /// The requests.
    pub ops: Vec<Op>,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Tenants to pre-build.
    pub tenants: Vec<TenantPlan>,
    /// Client connections (at most two — the box has two cores).
    pub clients: Vec<ClientPlan>,
}

impl Workload {
    /// Generates the workload for `seed`. Pure: the same arguments give the
    /// same tenants and byte-identical op streams.
    ///
    /// # Panics
    ///
    /// On a generator bug (the model engine rejecting a generated op).
    #[must_use]
    pub fn generate(kind: Kind, seed: u64, size: Size) -> Workload {
        let workload = match kind {
            Kind::UpdateStream => update_stream(seed, size),
            Kind::ReadMostly => read_mostly(seed, size),
            Kind::EvolveStorm => evolve_storm(seed, size),
            Kind::Rematerialize => rematerialize(seed, size),
        };
        // The serial oracle replays one client's mutations per tenant, so a
        // tenant may have at most one writing client.
        for t in 0..workload.tenants.len() {
            let writers = workload
                .clients
                .iter()
                .filter(|c| c.tenant == t && c.ops.iter().any(Op::is_mutation))
                .count();
            assert!(writers <= 1, "tenant {t} has {writers} writing clients");
        }
        workload
    }

    /// The mutations of `tenant`, in the order its writing client sends
    /// them — the serial oracle's script.
    pub fn mutations_of(&self, tenant: usize) -> impl Iterator<Item = &Op> {
        self.clients
            .iter()
            .filter(move |c| c.tenant == tenant)
            .flat_map(|c| c.ops.iter())
            .filter(|op| op.is_mutation())
    }

    /// A canonical rendering of every client's stream (determinism tests).
    #[must_use]
    pub fn canonical_streams(&self) -> Vec<String> {
        self.clients
            .iter()
            .map(|c| {
                let mut text = format!("tenant {}\n", self.tenants[c.tenant].name);
                for op in &c.ops {
                    text.push_str(&op.canonical());
                    text.push('\n');
                }
                text
            })
            .collect()
    }
}

/// Tenant names whose FNV-1a hashes land on different shards of the default
/// four-shard server, so two tenants' mutations really run on two workers
/// (pinned by a test against the server's routing function's definition).
const TENANT_NAMES: [&str; 2] = ["t0", "t1"];

// ----------------------------------------------------------------------
// Decks: fixed composition, seeded order
// ----------------------------------------------------------------------

/// Expands `(item, count)` pairs and shuffles them (Fisher–Yates). Every
/// stream is dealt from a deck, so the *composition* of a workload — how
/// many ops of each kind, on which relation or view — is the same for every
/// seed; the seed decides only their order and their values. That keeps a
/// median from sliding between two latency clusters because one seed drew
/// 38% small reads and the next 43%.
fn deck<T: Clone>(rng: &mut Rng, parts: &[(T, usize)]) -> Vec<T> {
    let mut cards: Vec<T> = parts
        .iter()
        .flat_map(|(item, n)| std::iter::repeat_n(item.clone(), *n))
        .collect();
    for i in (1..cards.len()).rev() {
        cards.swap(i, rng.index(i + 1));
    }
    cards
}

// ----------------------------------------------------------------------
// Base tables with tracked contents
// ----------------------------------------------------------------------

/// Builds the row for a fresh key.
type RowMaker = dyn Fn(i64, &mut Rng) -> Tuple;

/// A base relation whose live tuples the generator tracks, so deletes
/// always name a tuple that exists and inserts always use a fresh key.
struct Table {
    name: String,
    live: Vec<Tuple>,
    next_key: i64,
}

impl Table {
    fn new(name: &str, rows: &[Tuple]) -> Table {
        Table {
            name: name.to_owned(),
            live: rows.to_vec(),
            next_key: rows.len() as i64,
        }
    }

    /// An insert of a fresh row (built by `make` from its key) or a delete
    /// of a random live one; an empty table turns a delete into an insert.
    /// Returns whether it was an insert, and the tuple.
    fn change(&mut self, rng: &mut Rng, insert: bool, make: &RowMaker) -> (bool, Tuple) {
        if insert || self.live.is_empty() {
            let tuple = make(self.next_key, rng);
            self.next_key += 1;
            self.live.push(tuple.clone());
            (true, tuple)
        } else {
            let victim = rng.index(self.live.len());
            (false, self.live.swap_remove(victim))
        }
    }

    fn update(&mut self, rng: &mut Rng, insert: bool, make: &RowMaker) -> Op {
        let (insert, tuple) = self.change(rng, insert, make);
        Op::Update {
            relation: self.name.clone(),
            insert,
            tuple,
        }
    }

    fn batch_op(&mut self, rng: &mut Rng, insert: bool, make: &RowMaker) -> EvolutionOp {
        let (insert, tuple) = self.change(rng, insert, make);
        if insert {
            EvolutionOp::insert(self.name.clone(), vec![tuple])
        } else {
            EvolutionOp::delete(self.name.clone(), vec![tuple])
        }
    }
}

// ----------------------------------------------------------------------
// Replicated families and their survival chains
// ----------------------------------------------------------------------

/// Shape of the replicated families a tenant carries.
#[derive(Debug, Clone, Copy)]
struct FamilyShape {
    families: usize,
    replicas: usize,
    rows: usize,
    /// FROM bindings of the family's view, all on the same host: the
    /// rewrite search space is `partners ^ bindings`.
    bindings: usize,
    /// Further families that are registered but never changed. A change
    /// costs in proportion to the constraints the MKB holds, and the chains
    /// delete theirs as they go; the ballast keeps the MKB — and so the
    /// cost of a change — from shrinking to nothing over a round.
    ballast: usize,
}

impl FamilyShape {
    /// Changes in one family's survival chain: one deletion per member (the
    /// last one kills the view) plus one each of the other three variants.
    fn chain_len(self) -> usize {
        self.replicas + 1 + 3
    }

    /// Changes in all of a tenant's chains.
    fn changes(self) -> usize {
        self.families * self.chain_len()
    }
}

/// The three change variants mixed into every chain besides the deletions.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Extra {
    RenameRelation,
    RenameAttribute,
    DeleteAttribute,
}

/// Adds `shape.families` families to `plan` — one origin plus
/// `shape.replicas` replicas each, in a PC clique of mixed ≡/⊆/⊇ whose
/// extents really nest that way, with one view per family over
/// `shape.bindings` self-joined bindings of the origin — and returns each family's survival chain: the capability
/// changes that walk the view from host to host until it dies (the paper's
/// Experiment 1), with one attribute deletion and one rename of each kind
/// mixed in so all four shell-expressible variants run.
fn add_families(
    plan: &mut TenantPlan,
    rng: &mut Rng,
    shape: FamilyShape,
    first_site: u32,
) -> Vec<Vec<SchemaChange>> {
    let columns = [
        ("A", DataType::Int),
        ("B", DataType::Int),
        ("C", DataType::Int),
    ];
    let mut chains = Vec::with_capacity(shape.families);
    for f in 0..shape.families + shape.ballast {
        let mut family = TenantPlan::new("family-model", "");
        let members = shape.replicas + 1;
        // A member's level fixes its extent (level ℓ holds the first
        // rows + 4ℓ rows), so the declared containments are true of the data.
        let levels: Vec<u64> = (0..members).map(|_| rng.below(4)).collect();
        let name = |j: usize| format!("F{f}x{j}");
        for (j, level) in levels.iter().enumerate() {
            let rows = shape.rows + 4 * *level as usize;
            let tuples = (0..rows as i64)
                .map(|i| tup![i, (i * 7 + f as i64) % 101, i % 5])
                .collect();
            family.add_relation(&name(j), first_site + (j % 4) as u32, &columns, tuples);
        }
        for i in 0..members {
            for j in (i + 1)..members {
                let relationship = match levels[i].cmp(&levels[j]) {
                    std::cmp::Ordering::Equal => PcRelationship::Equivalent,
                    std::cmp::Ordering::Less => PcRelationship::Subset,
                    std::cmp::Ordering::Greater => PcRelationship::Superset,
                };
                family.pcs.push(PcConstraint::new(
                    PcSide::projection(name(i), &["A", "B", "C"]),
                    relationship,
                    PcSide::projection(name(j), &["A", "B", "C"]),
                ));
            }
        }
        let origin = name(0);
        let view = format!("W{f}");
        // `B0` is read through the first binding and `C2` through the last;
        // with one binding both sit on it, with three the bindings self-join
        // on the key.
        let last = shape.bindings - 1;
        let from: Vec<String> = (0..shape.bindings)
            .map(|b| format!("{origin} X{b} (RR = true)"))
            .collect();
        let joins: Vec<String> = (1..shape.bindings)
            .map(|b| format!("X{}.A = X{b}.A", b - 1))
            .collect();
        let mut sql = format!(
            "CREATE VIEW {view} (VE = '~') AS \
             SELECT X0.B AS B0 (AR = true), X{last}.C AS C2 (AD = true, AR = true) FROM {}",
            from.join(", ")
        );
        if !joins.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&joins.join(" AND "));
        }
        if f < shape.families {
            family.views.push(sql);
            chains.push(survival_chain(&family, &view, shape, rng));
        }
        for site in family.sites {
            plan.add_site(site);
        }
        plan.relations.extend(family.relations);
        plan.pcs.extend(family.pcs);
        plan.views.extend(family.views);
    }
    chains
}

/// Walks `view` to its death on the family's model engine and records the
/// changes that did it: at every step the relation hosting the view's first
/// binding is deleted — or, at three seeded steps before the last, renamed,
/// has the attribute behind `B0` renamed, or loses the attribute behind
/// `C2`.
fn survival_chain(
    family: &TenantPlan,
    view: &str,
    shape: FamilyShape,
    rng: &mut Rng,
) -> Vec<SchemaChange> {
    let mut model = family
        .build_model()
        .expect("generated family builds on the model engine");
    let len = shape.chain_len();
    // Where the three extras go: anywhere but the last step, which is the
    // deletion of the last member.
    let mut steps: Vec<Option<Extra>> = deck(
        rng,
        &[
            (Some(Extra::RenameRelation), 1),
            (Some(Extra::RenameAttribute), 1),
            (Some(Extra::DeleteAttribute), 1),
            (None, len - 4),
        ],
    );
    steps.push(None);
    let mut chain = Vec::with_capacity(len);
    for (step, extra) in steps.into_iter().enumerate() {
        let def = model
            .view(view)
            .unwrap_or_else(|_| panic!("{view} died at step {step} of {len}"))
            .def
            .clone();
        let host = def.from[0].relation.clone();
        let host_binding = def.from[0].binding_name().to_owned();
        // The attribute a select item reads, if it reads it through a
        // binding that sits on the host.
        let host_attr = |output: &str| {
            def.select
                .iter()
                .find(|s| s.output_name() == output)
                .filter(|s| {
                    s.attr.qualifier.as_deref().is_some_and(|b| {
                        b == host_binding
                            || def.from_item(b).is_some_and(|item| item.relation == host)
                    })
                })
                .map(|s| s.attr.name.clone())
        };
        let rename_host = SchemaChange::RenameRelation {
            from: host.clone(),
            to: format!("{host}r"),
        };
        let change = match extra {
            None => SchemaChange::DeleteRelation {
                relation: host.clone(),
            },
            Some(Extra::RenameRelation) => rename_host.clone(),
            // When the attribute is no longer read through the host, the
            // step falls back to the rename, which always applies — the
            // chain keeps its length either way.
            Some(Extra::RenameAttribute) => {
                host_attr("B0").map_or(rename_host.clone(), |attr| SchemaChange::RenameAttribute {
                    relation: host.clone(),
                    from: attr,
                    to: format!("B{step}"),
                })
            }
            Some(Extra::DeleteAttribute) => {
                host_attr("C2").map_or(rename_host.clone(), |attr| SchemaChange::DeleteAttribute {
                    relation: host.clone(),
                    attribute: attr,
                })
            }
        };
        model
            .notify_capability_change(&change, None)
            .unwrap_or_else(|e| panic!("model refused `{change}`: {e}"));
        chain.push(change);
    }
    assert!(
        model.view(view).is_err(),
        "{view} outlived the deletion of every member"
    );
    chain
}

/// The per-family chains of one tenant, handed out one change at a time in
/// a seeded interleaving across families.
struct Chains {
    chains: Vec<std::collections::VecDeque<SchemaChange>>,
}

impl Chains {
    fn new(chains: Vec<Vec<SchemaChange>>) -> Chains {
        Chains {
            chains: chains.into_iter().map(Into::into).collect(),
        }
    }

    fn unfinished(&self) -> Vec<usize> {
        (0..self.chains.len())
            .filter(|f| !self.chains[*f].is_empty())
            .collect()
    }

    /// The next change of a random unfinished family.
    fn next(&mut self, rng: &mut Rng) -> SchemaChange {
        let unfinished = self.unfinished();
        let f = unfinished[rng.index(unfinished.len())];
        self.chains[f].pop_front().expect("unfinished")
    }

    /// The view of a family that is certainly still alive (its chain has
    /// changes left, and only a chain's last change kills the view), else
    /// `fallback`.
    fn live_view(&self, rng: &mut Rng, fallback: &str) -> String {
        let live = self.unfinished();
        if live.is_empty() {
            fallback.to_owned()
        } else {
            format!("W{}", live[rng.index(live.len())])
        }
    }
}

// ----------------------------------------------------------------------
// update-stream
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum UpdateSlot {
    Change,
    Query(&'static str),
    Apply,
    Update { table: usize, insert: bool },
}

fn update_stream(seed: u64, size: Size) -> Workload {
    // A client's stream is `segments` decks of the same composition, a
    // checkpoint between each two: the restart replays exactly the last.
    let (rows, segments, updates_per_table, queries, applies, apply_len, shape) = match size {
        Size::Full => (
            2_000usize,
            6usize,
            59usize,
            16usize,
            7usize,
            32usize,
            FamilyShape {
                families: 6,
                replicas: 8,
                rows: 40,
                bindings: 1,
                ballast: 6,
            },
        ),
        Size::Smoke => (
            300,
            2,
            20,
            6,
            2,
            8,
            FamilyShape {
                families: 2,
                replicas: 3,
                rows: 10,
                bindings: 1,
                ballast: 2,
            },
        ),
    };
    assert_eq!(shape.changes() % segments, 0, "changes split evenly");
    let mut tenants = Vec::new();
    let mut clients = Vec::new();
    for (t, name) in TENANT_NAMES.iter().enumerate() {
        let mut rng = Rng::new(seed, 100 + t as u64);
        let mut plan = TenantPlan::new(name, "V2");
        let n = rows as u64;
        // A.J → B.K and B.J → C.K are the two join columns; B.K carries a
        // declared hash index, C.K does not.
        let make_ab = move |k: i64, r: &mut Rng| tup![k, r.below(n) as i64, r.below(16) as i64];
        let make_c = |k: i64, r: &mut Rng| tup![k, r.below(16) as i64, format!("c{k:05}")];
        let a_rows: Vec<Tuple> = (0..rows as i64).map(|k| make_ab(k, &mut rng)).collect();
        let b_rows: Vec<Tuple> = (0..rows as i64).map(|k| make_ab(k, &mut rng)).collect();
        let c_rows: Vec<Tuple> = (0..rows as i64).map(|k| make_c(k, &mut rng)).collect();
        let int3 = [
            ("K", DataType::Int),
            ("J", DataType::Int),
            ("P", DataType::Int),
        ];
        plan.add_relation("A", 1, &int3, a_rows.clone());
        plan.add_relation("B", 2, &int3, b_rows.clone());
        plan.add_relation(
            "C",
            3,
            &[
                ("K", DataType::Int),
                ("P", DataType::Int),
                ("T", DataType::Text),
            ],
            c_rows.clone(),
        );
        plan.indexes.push(("B".into(), "K".into()));
        plan.views.push(
            "CREATE VIEW V2 AS SELECT A.K, B.P AS BP FROM A, B WHERE A.J = B.K AND A.P < 8".into(),
        );
        plan.views.push(
            "CREATE VIEW V3 AS SELECT A.K, B.P AS BP, C.T FROM A, B, C \
             WHERE A.J = B.K AND B.J = C.K AND C.P < 8"
                .into(),
        );
        let mut chains = Chains::new(add_families(&mut plan, &mut rng, shape, 10));

        let mut tables = [
            Table::new("A", &a_rows),
            Table::new("B", &b_rows),
            Table::new("C", &c_rows),
        ];
        let makers: [&RowMaker; 3] = [&make_ab, &make_ab, &make_c];
        let mut composition = vec![
            (UpdateSlot::Change, shape.changes() / segments),
            // Three in four reads ask for the three-way join: the two
            // extents answer at different speeds, and an even split would
            // leave the median read on the boundary between them.
            (UpdateSlot::Query("V2"), queries / 4),
            (UpdateSlot::Query("V3"), queries - queries / 4),
            (UpdateSlot::Apply, applies),
        ];
        for table in 0..3 {
            for insert in [true, false] {
                composition.push((UpdateSlot::Update { table, insert }, updates_per_table));
            }
        }
        let mut ops = Vec::new();
        for segment in 0..segments {
            if segment > 0 {
                ops.push(Op::Checkpoint);
            }
            for slot in deck(&mut rng, &composition) {
                ops.push(match slot {
                    UpdateSlot::Change => Op::Change(chains.next(&mut rng)),
                    UpdateSlot::Query(view) => Op::Query(view.to_owned()),
                    UpdateSlot::Apply => Op::Apply(
                        (0..apply_len)
                            .map(|j| {
                                let table = j % 3;
                                tables[table].batch_op(&mut rng, j / 3 % 2 == 0, makers[table])
                            })
                            .collect(),
                    ),
                    UpdateSlot::Update { table, insert } => {
                        tables[table].update(&mut rng, insert, makers[table])
                    }
                });
            }
        }
        tenants.push(plan);
        clients.push(ClientPlan { tenant: t, ops });
    }
    Workload {
        kind: Kind::UpdateStream,
        tenants,
        clients,
    }
}

// ----------------------------------------------------------------------
// read-mostly
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum ReadSlot {
    Query(usize),
    Stats,
    Update(bool),
    Change,
}

fn read_mostly(seed: u64, size: Size) -> Workload {
    // Reads per client, split 15/60/15/10 over the four extents: the median
    // read is a mid-sized one, well inside its cluster, and the readers hold
    // the tenant lock often enough that the median write has waited for one.
    let (rows, reads, stats, updates, shape) = match size {
        Size::Full => (
            20_000usize,
            [98usize, 390, 98, 64],
            70usize,
            50usize,
            FamilyShape {
                families: 4,
                replicas: 8,
                rows: 40,
                bindings: 1,
                ballast: 8,
            },
        ),
        Size::Smoke => (
            1_000,
            [24, 18, 12, 6],
            6,
            10,
            FamilyShape {
                families: 2,
                replicas: 3,
                rows: 10,
                bindings: 1,
                ballast: 2,
            },
        ),
    };
    let mut rng = Rng::new(seed, 200);
    let mut plan = TenantPlan::new("shared", "VS");
    let make_row = |k: i64, r: &mut Rng| tup![k, r.below(1000) as i64, format!("customer-{k:07}")];
    let r_rows: Vec<Tuple> = (0..rows as i64).map(|k| make_row(k, &mut rng)).collect();
    plan.add_relation(
        "R",
        1,
        &[
            ("K", DataType::Int),
            ("G", DataType::Int),
            ("T", DataType::Text),
        ],
        r_rows.clone(),
    );
    // Four extents of ≈2.5% / 10% / 40% / 100% of R.
    let views = [("VS", 25), ("VM", 100), ("VL", 400), ("VX", 1000)];
    for (name, bound) in views {
        plan.views.push(format!(
            "CREATE VIEW {name} AS SELECT R.K, R.T FROM R WHERE R.G < {bound}"
        ));
    }
    let mut chains = Chains::new(add_families(&mut plan, &mut rng, shape, 10));
    let query_cards = |share: usize| -> Vec<(ReadSlot, usize)> {
        (0..4)
            .map(|v| (ReadSlot::Query(v), reads[v] * share / 100))
            .collect()
    };

    // Client 0 only reads.
    let mut reader_rng = Rng::new(seed, 201);
    let mut reader_cards = query_cards(100);
    reader_cards.push((ReadSlot::Stats, stats));
    let reader: Vec<Op> = deck(&mut reader_rng, &reader_cards)
        .into_iter()
        .map(|slot| match slot {
            ReadSlot::Query(v) => Op::Query(views[v].0.to_owned()),
            _ => Op::Stats,
        })
        .collect();

    // Client 1 reads a little less and carries every write and every
    // change: the tenant is write-locked for about a quarter of the round.
    let mut table = Table::new("R", &r_rows);
    let mut mixed_cards = query_cards(85);
    mixed_cards.push((ReadSlot::Update(true), updates));
    mixed_cards.push((ReadSlot::Update(false), updates));
    mixed_cards.push((ReadSlot::Change, shape.changes()));
    let mixed: Vec<Op> = deck(&mut rng, &mixed_cards)
        .into_iter()
        .map(|slot| match slot {
            ReadSlot::Query(v) => Op::Query(views[v].0.to_owned()),
            ReadSlot::Update(insert) => table.update(&mut rng, insert, &make_row),
            ReadSlot::Change => Op::Change(chains.next(&mut rng)),
            ReadSlot::Stats => Op::Stats,
        })
        .collect();

    Workload {
        kind: Kind::ReadMostly,
        tenants: vec![plan],
        clients: vec![
            ClientPlan {
                tenant: 0,
                ops: reader,
            },
            ClientPlan {
                tenant: 0,
                ops: mixed,
            },
        ],
    }
}

// ----------------------------------------------------------------------
// evolve-storm
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum StormSlot {
    Change,
    Query,
    Update(bool),
}

fn evolve_storm(seed: u64, size: Size) -> Workload {
    let shape = match size {
        Size::Full => FamilyShape {
            families: 16,
            replicas: 12,
            rows: 40,
            bindings: 3,
            ballast: 0,
        },
        Size::Smoke => FamilyShape {
            families: 3,
            replicas: 4,
            rows: 10,
            bindings: 3,
            ballast: 0,
        },
    };
    let mut tenants = Vec::new();
    let mut clients = Vec::new();
    for (t, name) in TENANT_NAMES.iter().enumerate() {
        let mut rng = Rng::new(seed, 300 + t as u64);
        let mut plan = TenantPlan::new(name, "VLog");
        // Self-join views cannot be maintained incrementally, so data
        // updates go to a side relation with its own view.
        let make_row = |k: i64, r: &mut Rng| tup![k, r.below(100) as i64];
        let log_rows: Vec<Tuple> = (0..200).map(|k| make_row(k, &mut rng)).collect();
        plan.add_relation(
            "Log",
            1,
            &[("K", DataType::Int), ("V", DataType::Int)],
            log_rows.clone(),
        );
        plan.views
            .push("CREATE VIEW VLog AS SELECT Log.K, Log.V FROM Log WHERE Log.V < 50".into());
        let mut chains = Chains::new(add_families(&mut plan, &mut rng, shape, 10));
        let mut table = Table::new("Log", &log_rows);
        // ≈10% reads and ≈10% writes ride along with the changes.
        let changes = shape.changes();
        let side = changes / 8;
        let cards = deck(
            &mut rng,
            &[
                (StormSlot::Change, changes),
                (StormSlot::Query, side),
                (StormSlot::Update(true), side / 2),
                (StormSlot::Update(false), side / 2),
            ],
        );
        let mut ops = Vec::with_capacity(cards.len() + 1);
        let mut done = 0usize;
        for slot in cards {
            ops.push(match slot {
                StormSlot::Change => {
                    done += 1;
                    Op::Change(chains.next(&mut rng))
                }
                StormSlot::Query => Op::Query(chains.live_view(&mut rng, "VLog")),
                StormSlot::Update(insert) => table.update(&mut rng, insert, &make_row),
            });
            // One checkpoint halfway, so the restart replays half the
            // chains back through the search instead of all of them.
            if done == changes / 2 && matches!(slot, StormSlot::Change) {
                ops.push(Op::Checkpoint);
            }
        }
        tenants.push(plan);
        clients.push(ClientPlan { tenant: t, ops });
    }
    Workload {
        kind: Kind::EvolveStorm,
        tenants,
        clients,
    }
}

// ----------------------------------------------------------------------
// rematerialize
// ----------------------------------------------------------------------

/// One of the four base "slots" of the rematerialize tenant: the base
/// relation and its replicas, all equivalent, any of which can host the
/// views' binding for that slot.
struct Slot {
    live: Vec<String>,
    renames: usize,
}

fn rematerialize(seed: u64, size: Size) -> Workload {
    let (rows, replicas, cycles, batch) = match size {
        Size::Full => (12_000usize, 5usize, 9usize, 8usize),
        Size::Smoke => (400, 2, 3, 4),
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let columns = [
        ("K", DataType::Int),
        ("J", DataType::Int),
        ("P", DataType::Int),
        ("G", DataType::Int),
        ("T", DataType::Text),
    ];
    let mut tenants = Vec::new();
    let mut clients = Vec::new();
    for (t, name) in TENANT_NAMES.iter().enumerate() {
        let mut rng = Rng::new(seed, 400 + t as u64);
        let mut plan = TenantPlan::new(name, "VC");
        plan.parallelism = nproc;
        let n = rows as u64;
        let make_row = move |k: i64, r: &mut Rng| {
            tup![
                k,
                r.below(n) as i64,
                r.below(n) as i64,
                r.below(100) as i64,
                format!("key-{k:08}")
            ]
        };
        let mut slots = Vec::new();
        for s in 0..4 {
            let base_rows: Vec<Tuple> = (0..rows as i64).map(|k| make_row(k, &mut rng)).collect();
            let mut live = Vec::new();
            for j in 0..=replicas {
                let name = if j == 0 {
                    format!("B{s}")
                } else {
                    format!("B{s}y{j}")
                };
                plan.add_relation(
                    &name,
                    1 + (s as u32) * 8 + j as u32,
                    &columns,
                    base_rows.clone(),
                );
                live.push(name);
            }
            for i in 0..live.len() {
                for j in (i + 1)..live.len() {
                    plan.pcs.push(PcConstraint::new(
                        PcSide::projection(live[i].clone(), &["K", "J", "P", "G", "T"]),
                        PcRelationship::Equivalent,
                        PcSide::projection(live[j].clone(), &["K", "J", "P", "G", "T"]),
                    ));
                }
            }
            slots.push(Slot { live, renames: 0 });
        }
        // The three view shapes of the `view_exec`/`columns` benches: a
        // chain, a star, and a join on a wide text key.
        let shape_sql = |name: &str, shape: usize, b: &[String; 4]| match shape {
            0 => format!(
                "CREATE VIEW {name} (VE = '~') AS \
                 SELECT X.K AS XK (AR = true), Z.G AS ZG (AR = true) \
                 FROM {} X (RR = true), {} Y (RR = true), {} Z (RR = true) \
                 WHERE X.J = Y.K AND Y.J = Z.K",
                b[0], b[1], b[2]
            ),
            1 => format!(
                "CREATE VIEW {name} (VE = '~') AS \
                 SELECT X.K AS XK (AR = true), Y.G AS YG (AR = true), Z.G AS ZG (AR = true) \
                 FROM {} X (RR = true), {} Y (RR = true), {} Z (RR = true) \
                 WHERE X.J = Y.K AND X.P = Z.K",
                b[0], b[1], b[3]
            ),
            _ => format!(
                "CREATE VIEW {name} (VE = '~') AS \
                 SELECT X.K AS XK (AR = true), Y.G AS YG (AR = true) \
                 FROM {} X (RR = true), {} Y (RR = true) \
                 WHERE X.T = Y.T",
                b[2], b[3]
            ),
        };
        let bases: [String; 4] = std::array::from_fn(|s| slots[s].live[0].clone());
        plan.views.push(shape_sql("VC", 0, &bases));
        plan.views.push(shape_sql("VS", 1, &bases));
        plan.views.push(shape_sql("VT", 2, &bases));
        let mut model = plan.build_model().expect("rematerialize model builds");
        let mut view_names = vec!["VC".to_owned(), "VS".to_owned(), "VT".to_owned()];
        // Tuples this stream inserted, per relation: the only ones it
        // deletes, so every delete names a tuple that is there.
        let mut inserted: std::collections::BTreeMap<String, Vec<Tuple>> = Default::default();
        let mut next_key = rows as i64;
        // The relation hosting slot `s` in the views right now.
        let host_of = |model: &EveEngine, slots: &[Slot], s: usize| -> String {
            model
                .views()
                .flat_map(|mv| mv.def.from.iter())
                .map(|f| f.relation.clone())
                .find(|r| slots[s].live.contains(r))
                .unwrap_or_else(|| slots[s].live[0].clone())
        };
        let mut ops = Vec::new();
        let apply_change = |model: &mut EveEngine, ops: &mut Vec<Op>, change: SchemaChange| {
            model
                .notify_capability_change(&change, None)
                .unwrap_or_else(|e| panic!("model refused `{change}`: {e}"));
            ops.push(Op::Change(change));
        };
        // Which slot, view and shape a cycle touches goes round-robin, so
        // the composition is the same for every seed; the seed decides the
        // tuples and where in the cycle order the two tenants start.
        let phase = rng.index(4);
        for cycle in 0..cycles {
            // Two reads of a large extent.
            for q in 0..2 {
                ops.push(Op::Query(view_names[(cycle * 2 + q + phase) % 3].clone()));
            }
            // A batch of updates on the relations the views are hosted on.
            let mut batch_ops = Vec::with_capacity(batch);
            for j in 0..batch {
                let relation = host_of(&model, &slots, j % 4);
                let mine = inserted.entry(relation.clone()).or_default();
                if !mine.is_empty() && j / 4 % 2 == 1 {
                    let victim = rng.index(mine.len());
                    batch_ops.push(EvolutionOp::delete(
                        relation,
                        vec![mine.swap_remove(victim)],
                    ));
                } else {
                    let tuple = make_row(next_key, &mut rng);
                    next_key += 1;
                    mine.push(tuple.clone());
                    batch_ops.push(EvolutionOp::insert(relation, vec![tuple]));
                }
            }
            ops.push(Op::Apply(batch_ops));
            // A rename of a hosting relation: no search to speak of, but
            // every view on it is recomputed.
            let s = (cycle + phase) % 4;
            let host = host_of(&model, &slots, s);
            slots[s].renames += 1;
            let renamed = format!("B{s}n{}", slots[s].renames);
            let at = slots[s]
                .live
                .iter()
                .position(|r| *r == host)
                .expect("host is live");
            slots[s].live[at] = renamed.clone();
            if let Some(tuples) = inserted.remove(&host) {
                inserted.insert(renamed.clone(), tuples);
            }
            apply_change(
                &mut model,
                &mut ops,
                SchemaChange::RenameRelation {
                    from: host,
                    to: renamed,
                },
            );
            // A deletion of a hosting relation (its slot always has
            // replicas left): a small search, then the same recompute.
            let s = (cycle + phase + 2) % 4;
            assert!(slots[s].live.len() > 1, "slot {s} ran out of replicas");
            let host = host_of(&model, &slots, s);
            slots[s].live.retain(|r| *r != host);
            inserted.remove(&host);
            apply_change(
                &mut model,
                &mut ops,
                SchemaChange::DeleteRelation { relation: host },
            );
            // Every other cycle, one more view over the current hosts.
            if cycle % 2 == 1 {
                let name = format!("N{cycle}");
                let hosts: [String; 4] = std::array::from_fn(|s| host_of(&model, &slots, s));
                let sql = shape_sql(&name, cycle / 2 % 3, &hosts);
                model
                    .define_view_sql(&sql)
                    .unwrap_or_else(|e| panic!("model refused `{sql}`: {e}"));
                view_names.push(name);
                ops.push(Op::DefineView(sql));
            }
        }
        ops.push(Op::Checkpoint);
        tenants.push(plan);
        clients.push(ClientPlan { tenant: t, ops });
    }
    Workload {
        kind: Kind::Rematerialize,
        tenants,
        clients,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The server's tenant→shard map (FNV-1a over the name, modulo the
    /// shard count), restated so the tenant names can be checked against it.
    fn shard_of(name: &str, shards: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h % shards
    }

    #[test]
    fn the_two_tenants_land_on_different_default_shards() {
        let shards = eve_server::ServerConfig::default().shards as u64;
        assert_ne!(
            shard_of(TENANT_NAMES[0], shards),
            shard_of(TENANT_NAMES[1], shards)
        );
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_differs() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 11, Size::Smoke).canonical_streams();
            let b = Workload::generate(kind, 11, Size::Smoke).canonical_streams();
            let c = Workload::generate(kind, 12, Size::Smoke).canonical_streams();
            assert_eq!(a, b, "{}: same seed", kind.name());
            assert_ne!(a, c, "{}: different seed", kind.name());
        }
    }

    #[test]
    fn every_workload_carries_all_three_latency_classes() {
        use crate::ops::OpKind;
        for kind in Kind::ALL {
            let w = Workload::generate(kind, 3, Size::Smoke);
            for class in OpKind::TIMED {
                let n = w
                    .clients
                    .iter()
                    .flat_map(|c| c.ops.iter())
                    .filter(|op| op.kind() == class)
                    .count();
                assert!(n > 0, "{} has no {} ops", kind.name(), class.label());
            }
            assert!(w.clients.len() <= 2);
        }
    }

    #[test]
    fn composition_is_the_same_for_every_seed() {
        use crate::ops::OpKind;
        let census = |seed: u64, kind: Kind| -> Vec<Vec<usize>> {
            Workload::generate(kind, seed, Size::Smoke)
                .clients
                .iter()
                .map(|c| {
                    [OpKind::Read, OpKind::Write, OpKind::Change, OpKind::Other]
                        .iter()
                        .map(|k| c.ops.iter().filter(|op| op.kind() == *k).count())
                        .collect()
                })
                .collect()
        };
        for kind in Kind::ALL {
            assert_eq!(census(1, kind), census(2, kind), "{}", kind.name());
        }
    }

    #[test]
    fn evolve_storm_runs_all_four_change_variants() {
        let w = Workload::generate(Kind::EvolveStorm, 5, Size::Full);
        let mut seen = [false; 4];
        for op in w.clients.iter().flat_map(|c| c.ops.iter()) {
            if let Op::Change(change) = op {
                let i = match change {
                    SchemaChange::DeleteRelation { .. } => 0,
                    SchemaChange::DeleteAttribute { .. } => 1,
                    SchemaChange::RenameRelation { .. } => 2,
                    SchemaChange::RenameAttribute { .. } => 3,
                    _ => unreachable!(),
                };
                seen[i] = true;
            }
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn generation_succeeds_for_many_seeds() {
        // The generator asserts its own invariants (every chain ends with
        // the view's death, the model accepts every change), so generating
        // is the test.
        for seed in 0..40 {
            for kind in Kind::ALL {
                let w = Workload::generate(kind, seed, Size::Smoke);
                assert!(w.clients.iter().all(|c| !c.ops.is_empty()));
            }
        }
    }

    /// The same at the measured size (slow unoptimized):
    /// `cargo test --release --offline -- --ignored`.
    #[test]
    #[ignore = "seconds per seed in a debug build"]
    fn full_size_generation_succeeds_for_many_seeds() {
        for seed in 100..140 {
            for kind in Kind::ALL {
                let _ = Workload::generate(kind, seed, Size::Full);
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
