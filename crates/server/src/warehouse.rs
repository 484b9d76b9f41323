//! The tenant registry: many independent warehouses behind one server.
//!
//! Each tenant owns a directory under the warehouse root holding its
//! durable evolution store, wrapped in an [`eve_system::Shell`] so the
//! wire protocol's statements execute exactly like interactive shell
//! lines. Both request kinds become one [`Command`] before any lock is
//! taken — a statement through [`Shell::parse`], an `Apply` batch as
//! [`Command::Apply`]. A malformed statement is refused there, before
//! admission.
//!
//! A [`Command::Read`] is answered by [`Shell::answer`] under the
//! tenant's read lock, beside the clients' `Query` requests (a `Query`
//! request is that same command). It is never gated and is charged
//! nothing, so budget exhaustion degrades a tenant to read-only, it does
//! not black-hole it. Every other command takes one path under the
//! write lock: admit, [`Shell::run`], charge. Admission meters what
//! `run` reports: the rewrite-search candidates the command generated
//! and the engine's I/O blocks. Once a tenant's budget is spent its
//! policy decides whether further mutations are rejected outright or
//! parked, parsed, in a bounded deferred queue that drains (in arrival
//! order) on the next budget reset.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use eve_relational::ExecOptions;
use eve_sync::EvolutionOp;
use eve_system::{Command, DurableEngine, ReadCommand, Shell};

use crate::{Error, Result};

/// A tenant's admission budget. Defaults are effectively unlimited —
/// budgets are opt-in per tenant.
#[derive(Debug, Clone, Copy)]
pub struct TenantBudget {
    /// QC rewrite-search candidates the tenant may spend between resets.
    pub candidates: u64,
    /// I/O blocks the tenant may spend between resets.
    pub io: u64,
    /// Capacity of the deferred-mutation queue under
    /// [`AdmissionPolicy::Queue`].
    pub max_queue: usize,
}

impl Default for TenantBudget {
    fn default() -> TenantBudget {
        TenantBudget {
            candidates: u64::MAX,
            io: u64::MAX,
            max_queue: 64,
        }
    }
}

/// What happens to a mutation that arrives after the budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse with [`Error::BudgetExceeded`].
    Reject,
    /// Park it in the deferred queue (up to `max_queue`), to be applied
    /// by the next [`Tenant::reset_budget`].
    Queue,
}

/// A tenant's admission counters and execution setting, as reported over
/// the wire. The process-wide and engine counters (columnar, index,
/// interning, morsel) are on the `Metrics` answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// Candidates spent since the last reset.
    pub candidates_used: u64,
    /// I/O blocks spent since the last reset.
    pub io_used: u64,
    /// Configured candidate budget.
    pub candidate_budget: u64,
    /// Configured I/O budget.
    pub io_budget: u64,
    /// Mutations waiting in the deferred queue.
    pub queued: u64,
    /// Intra-query worker threads (the morsel pool) a query of this
    /// tenant may use.
    pub exec_parallelism: u64,
}

/// A request's mutation as it arrives, before it is parsed to a
/// [`Command`].
#[derive(Debug)]
pub enum Mutation {
    /// One shell statement line.
    Statement(String),
    /// A batch of evolution ops.
    Apply(Vec<EvolutionOp>),
}

/// The outcome of an admitted mutation.
#[derive(Debug)]
pub enum Admitted {
    /// Executed now; the display output.
    Executed(String),
    /// Parked in the deferred queue at this position.
    Queued(usize),
}

#[derive(Debug, Default)]
struct AdmissionState {
    candidates_used: u64,
    io_used: u64,
    deferred: VecDeque<Command>,
}

/// One tenant: a shell over a durable engine, plus admission state.
///
/// The shell lives under an `RwLock`. A mutation takes the write lock
/// before its admission check and holds it until it is charged, so the
/// check, the run and the charge are one critical section: two clients
/// cannot both spend the last unit of budget. Reads — a `Query` request
/// or a statement that parses to a [`ReadCommand`] — take the read lock,
/// by type, and run concurrently. Locks are taken shell first, then
/// `state`. A panic under the write lock poisons the tenant: the shell
/// may be half-applied, so every request is refused with
/// [`Error::Poisoned`] until the warehouse is reopened from the store.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    shell: RwLock<Shell>,
    budget: TenantBudget,
    policy: AdmissionPolicy,
    state: Mutex<AdmissionState>,
}

impl Tenant {
    /// The tenant's name (its directory under the warehouse root).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read access to the tenant's shell (concurrent with other readers),
    /// for observers such as [`Tenant::fingerprint`]. It does not check
    /// for poison: it hands out the shell even after a request panicked
    /// while writing it. A request's reads refuse a poisoned shell with
    /// [`Error::Poisoned`] instead.
    pub fn read(&self) -> RwLockReadGuard<'_, Shell> {
        self.shell.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read access to the shell for a request.
    ///
    /// # Errors
    ///
    /// [`Error::Poisoned`] once a request panicked while holding the
    /// write lock.
    pub(crate) fn read_shell(&self) -> Result<RwLockReadGuard<'_, Shell>> {
        self.shell.read().map_err(|_| self.poisoned())
    }

    fn write_shell(&self) -> Result<RwLockWriteGuard<'_, Shell>> {
        self.shell.write().map_err(|_| self.poisoned())
    }

    fn poisoned(&self) -> Error {
        Error::Poisoned {
            detail: format!(
                "tenant `{}` is poisoned: a request panicked while writing it; \
                 reopen the warehouse to recover it from its store",
                self.name
            ),
        }
    }

    /// The canonical byte fingerprint of the tenant's engine state —
    /// what "byte-identical to a serial application" is checked against.
    #[must_use]
    pub fn fingerprint(&self) -> Vec<u8> {
        self.read().engine().snapshot_state().to_bytes()
    }

    /// Current admission counters.
    ///
    /// # Errors
    ///
    /// [`Error::Poisoned`].
    pub fn stats(&self) -> Result<TenantStats> {
        let parallelism = self.read_shell()?.engine().exec_options.parallelism;
        let st = lock(&self.state);
        Ok(TenantStats {
            candidates_used: st.candidates_used,
            io_used: st.io_used,
            candidate_budget: self.budget.candidates,
            io_budget: self.budget.io,
            queued: st.deferred.len() as u64,
            exec_parallelism: parallelism as u64,
        })
    }

    /// A view's extent, answered as the statement `query <view>` is.
    ///
    /// # Errors
    ///
    /// Unknown view; [`Error::Poisoned`].
    pub fn query(&self, view: &str) -> Result<String> {
        Ok(self
            .read_shell()?
            .answer(&ReadCommand::Query(view.to_owned()))?)
    }

    fn over_budget(&self, st: &AdmissionState) -> Option<String> {
        if st.candidates_used >= self.budget.candidates {
            return Some(format!(
                "{} of {} QC candidates spent",
                st.candidates_used, self.budget.candidates
            ));
        }
        if st.io_used >= self.budget.io {
            return Some(format!(
                "{} of {} I/O blocks spent",
                st.io_used, self.budget.io
            ));
        }
        None
    }

    /// Runs one mutation through admission control. A statement is parsed
    /// first, with no lock held: a malformed one is refused before
    /// admission, and a [`Command::Read`] is answered at once under the
    /// read lock, ungated and uncharged. Any other command takes the write
    /// lock, then executes when the budget allows, otherwise is rejected
    /// or queued per the tenant's policy.
    ///
    /// # Errors
    ///
    /// A statement's parse error; [`Error::Poisoned`];
    /// [`Error::BudgetExceeded`] / [`Error::QueueFull`] from admission;
    /// any engine/store failure from execution.
    pub fn execute_mutation(&self, mutation: Mutation) -> Result<Admitted> {
        let command = match mutation {
            Mutation::Statement(line) => Shell::parse(&line)?,
            Mutation::Apply(ops) => Command::Apply(ops),
        };
        if let Command::Read(read) = &command {
            return Ok(Admitted::Executed(self.read_shell()?.answer(read)?));
        }
        let mut shell = self.write_shell()?;
        let mut st = lock(&self.state);
        if let Some(detail) = self.over_budget(&st) {
            let tenant = self.name.clone();
            if self.policy == AdmissionPolicy::Reject {
                return Err(Error::BudgetExceeded { tenant, detail });
            }
            let capacity = self.budget.max_queue;
            if st.deferred.len() >= capacity {
                return Err(Error::QueueFull { tenant, capacity });
            }
            st.deferred.push_back(command);
            return Ok(Admitted::Queued(st.deferred.len() - 1));
        }
        drop(st);
        Ok(Admitted::Executed(self.run_now(&mut shell, command)?))
    }

    /// Runs an admitted command on the write-locked `shell` and charges
    /// what it cost: the candidates [`Shell::run`] reports and the engine's
    /// measured I/O, at least one unit — its log append — so a stream of
    /// tiny mutations cannot run forever on a finite budget. Statements and
    /// `Apply` batches take this one path, so a `change` statement spends
    /// the budget exactly like the same change sent as `Apply`.
    fn run_now(&self, shell: &mut Shell, command: Command) -> Result<String> {
        let io_before = shell.engine().total_io();
        let (output, candidates) = shell.run(command)?;
        let io = shell.engine().total_io().saturating_sub(io_before);
        let mut st = lock(&self.state);
        st.candidates_used = st.candidates_used.saturating_add(candidates);
        st.io_used = st.io_used.saturating_add(io.max(1));
        Ok(output)
    }

    /// Zeroes the budget counters and drains the deferred queue, applying
    /// each parked mutation in arrival order (their cost accrues against
    /// the fresh budget). Returns how many were drained. The write lock is
    /// held across the whole drain, so no new mutation overtakes the
    /// parked ones.
    ///
    /// # Errors
    ///
    /// [`Error::Poisoned`]; the first engine/store failure while
    /// draining. The failing mutation is dropped — retrying it would fail
    /// identically — and everything behind it stays queued for the next
    /// reset.
    pub(crate) fn reset_budget(&self) -> Result<usize> {
        let mut shell = self.write_shell()?;
        let mut pending = {
            let mut st = lock(&self.state);
            st.candidates_used = 0;
            st.io_used = 0;
            std::mem::take(&mut st.deferred)
        };
        let mut drained = 0usize;
        while let Some(command) = pending.pop_front() {
            if let Err(e) = self.run_now(&mut shell, command) {
                // Put the unprocessed tail back (the failed command is
                // consumed). Queueing takes the write lock, which the
                // drain holds, so nothing was queued since.
                lock(&self.state).deferred = pending;
                return Err(e);
            }
            drained += 1;
        }
        Ok(drained)
    }
}

fn lock(state: &Mutex<AdmissionState>) -> std::sync::MutexGuard<'_, AdmissionState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// The registry: tenants by name, each backed by `root/<name>`.
#[derive(Debug)]
pub struct Warehouse {
    root: PathBuf,
    default_budget: TenantBudget,
    default_policy: AdmissionPolicy,
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl Warehouse {
    /// Opens (creating if needed) a warehouse root directory. Tenants are
    /// attached lazily on first use.
    ///
    /// # Errors
    ///
    /// I/O failures creating the root.
    pub fn open(root: impl Into<PathBuf>) -> Result<Warehouse> {
        Warehouse::with_defaults(root, TenantBudget::default(), AdmissionPolicy::Reject)
    }

    /// Like [`Warehouse::open`] with explicit defaults for tenants
    /// created afterwards.
    ///
    /// # Errors
    ///
    /// I/O failures creating the root.
    pub(crate) fn with_defaults(
        root: impl Into<PathBuf>,
        budget: TenantBudget,
        policy: AdmissionPolicy,
    ) -> Result<Warehouse> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| Error::Engine {
            detail: format!("cannot create warehouse root {}: {e}", root.display()),
        })?;
        Ok(Warehouse {
            root,
            default_budget: budget,
            default_policy: policy,
            tenants: RwLock::new(BTreeMap::new()),
        })
    }

    /// The warehouse root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn tenants_read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<Tenant>>> {
        self.tenants.read().unwrap_or_else(|e| e.into_inner())
    }

    /// An already-attached tenant.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`] when `name` was never attached.
    pub fn existing(&self, name: &str) -> Result<Arc<Tenant>> {
        self.tenants_read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownTenant {
                tenant: name.to_owned(),
            })
    }

    /// Gets or creates the tenant `name` with the warehouse defaults:
    /// recovers `root/<name>` when a store exists there, bootstraps a
    /// fresh one otherwise.
    ///
    /// # Errors
    ///
    /// Invalid names (anything that is not `[A-Za-z0-9_-]+` — tenant
    /// names are directory names, so separators are refused), store
    /// lock contention ([`Error::Busy`]) and I/O failures.
    pub fn tenant(&self, name: &str) -> Result<Arc<Tenant>> {
        self.tenant_with(name, self.default_budget, self.default_policy)
    }

    /// Gets or creates the tenant `name` with an explicit budget and
    /// policy (existing tenants keep their configuration).
    ///
    /// # Errors
    ///
    /// As for [`Warehouse::tenant`].
    pub fn tenant_with(
        &self,
        name: &str,
        budget: TenantBudget,
        policy: AdmissionPolicy,
    ) -> Result<Arc<Tenant>> {
        self.tenant_with_exec(name, budget, policy, ExecOptions::default())
    }

    /// Gets or creates the tenant `name` with an explicit budget, policy
    /// and intra-query execution options (existing tenants keep their
    /// configuration). Parallelism is a query tuning knob only:
    /// admission control still charges the same QC candidates and I/O
    /// blocks whether a query runs serial or morsel-parallel, and the
    /// engine fingerprint is byte-identical either way.
    ///
    /// # Errors
    ///
    /// As for [`Warehouse::tenant`].
    pub fn tenant_with_exec(
        &self,
        name: &str,
        budget: TenantBudget,
        policy: AdmissionPolicy,
        exec: ExecOptions,
    ) -> Result<Arc<Tenant>> {
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(Error::protocol(format!(
                "invalid tenant name `{name}`: tenant names are directory names \
                 ([A-Za-z0-9_-]+)"
            )));
        }
        if let Some(t) = self.tenants_read().get(name) {
            return Ok(Arc::clone(t));
        }
        let mut tenants = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = tenants.get(name) {
            return Ok(Arc::clone(t));
        }
        let dir = self.root.join(name);
        let durable = if eve_store::EvolutionStore::exists(&dir)? {
            DurableEngine::open(&dir)?.0
        } else {
            DurableEngine::create(&dir)?
        };
        let mut shell = Shell::with_durable(durable);
        shell.engine_mut().exec_options = exec;
        let tenant = Arc::new(Tenant {
            name: name.to_owned(),
            shell: RwLock::new(shell),
            budget,
            policy,
            state: Mutex::new(AdmissionState::default()),
        });
        tenants.insert(name.to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "eve-warehouse-tests-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn tenants_are_isolated_directories() {
        let root = scratch("isolated");
        let wh = Warehouse::open(&root).unwrap();
        let a = wh.tenant("alpha").unwrap();
        let b = wh.tenant("beta").unwrap();
        a.execute_mutation(Mutation::Statement("site 1 s1".into()))
            .unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(root.join("alpha").join("store.lock").exists());
        assert!(root.join("beta").is_dir());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn parallelism_leaves_io_accounting_and_fingerprint_unchanged() {
        let root = scratch("parallel");
        let wh = Warehouse::open(&root).unwrap();
        let run = |name: &str, exec: ExecOptions| {
            let t = wh
                .tenant_with_exec(name, TenantBudget::default(), AdmissionPolicy::Reject, exec)
                .unwrap();
            for line in [
                "site 1 s1",
                "relation R @1 (K:int, V:text)",
                "insert R (1, 'a')",
                "insert R (2, 'b')",
                "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
                "update R insert (3, 'c')",
            ] {
                t.execute_mutation(Mutation::Statement(line.into()))
                    .unwrap();
            }
            (t.stats().unwrap(), t.query("V").unwrap(), t.fingerprint())
        };
        let (serial, serial_out, serial_fp) = run("serial", ExecOptions::serial());
        let (par, par_out, par_fp) = run("parallel", ExecOptions::with_parallelism(4));
        // Parallelism is a query knob: admission charges the same
        // I/O and candidates, and the engine state is byte-identical.
        assert_eq!(serial.io_used, par.io_used);
        assert_eq!(serial.candidates_used, par.candidates_used);
        assert_eq!(serial_out, par_out);
        assert_eq!(serial_fp, par_fp);
        assert_eq!(serial.exec_parallelism, 1);
        assert_eq!(par.exec_parallelism, 4);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn invalid_tenant_names_are_refused() {
        let root = scratch("names");
        let wh = Warehouse::open(&root).unwrap();
        for bad in ["", "../escape", "a/b", "a b", "dot.dot"] {
            let err = wh.tenant(bad).unwrap_err();
            assert!(matches!(err, Error::Protocol { .. }), "{bad}: {err:?}");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reject_policy_refuses_mutations_once_budget_is_spent() {
        let root = scratch("reject");
        let wh = Warehouse::open(&root).unwrap();
        // Five statements of setup spend the whole budget (each executed
        // mutation charges at least one I/O unit).
        let budget = TenantBudget {
            io: 5,
            ..TenantBudget::default()
        };
        let t = wh
            .tenant_with("miser", budget, AdmissionPolicy::Reject)
            .unwrap();
        // Burn the I/O budget with real work.
        for line in [
            "site 1 s1",
            "relation R @1 (K:int, V:text)",
            "insert R (1, 'a')",
            "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
            "update R insert (2, 'b')",
        ] {
            t.execute_mutation(Mutation::Statement(line.into()))
                .unwrap();
        }
        assert!(t.stats().unwrap().io_used >= 5);
        let err = t
            .execute_mutation(Mutation::Statement("update R insert (3, 'c')".into()))
            .unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }), "{err:?}");
        // Reads keep working while the tenant is over budget.
        assert!(t.query("V").unwrap().contains('1'));
        // Reset restores write admission.
        assert_eq!(t.reset_budget().unwrap(), 0);
        t.execute_mutation(Mutation::Statement("update R insert (3, 'c')".into()))
            .unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn change_statements_spend_the_candidate_budget_like_apply() {
        // Pins the admission-bypass bugfix: a `change` sent as a statement
        // used to charge no candidates, so a tenant could run any number of
        // rewrite searches on a spent budget by choosing that request kind.
        use eve_misd::SchemaChange;
        let root = scratch("bypass");
        let wh = Warehouse::open(&root).unwrap();
        let budget = TenantBudget {
            candidates: 1,
            ..TenantBudget::default()
        };
        let build = |name: &str| {
            let t = wh
                .tenant_with(name, budget, AdmissionPolicy::Reject)
                .unwrap();
            for line in [
                "site 1 s1",
                "relation R @1 (K:int)",
                "relation M @1 (K:int)",
                "relation N @1 (K:int)",
                "insert R (1)",
                "insert M (1)",
                "insert N (1)",
                "pc R (K) = M (K)",
                "pc M (K) = N (K)",
                "view CREATE VIEW V (VE = '~') AS SELECT X.K FROM R X (RR = true)",
            ] {
                t.execute_mutation(Mutation::Statement(line.into()))
                    .unwrap();
            }
            assert_eq!(
                t.stats().unwrap().candidates_used,
                0,
                "set-up searches nothing"
            );
            t
        };
        // The same two changes in each request kind: the first runs and
        // spends the budget, the second is refused until the reset.
        let spend = |t: &Tenant, first: Mutation, second: [Mutation; 2]| {
            t.execute_mutation(first).unwrap();
            let spent = t.stats().unwrap().candidates_used;
            assert!(spent >= 1, "the rewrite search was charged: {spent}");
            let [refused, readmitted] = second;
            let err = t.execute_mutation(refused).unwrap_err();
            assert!(matches!(err, Error::BudgetExceeded { .. }), "{err:?}");
            assert!(t.query("V").unwrap().contains('1'), "reads still answer");
            assert_eq!(t.reset_budget().unwrap(), 0);
            t.execute_mutation(readmitted).unwrap();
            spent + t.stats().unwrap().candidates_used
        };
        let statement = |rel: &str| Mutation::Statement(format!("change delete-relation {rel}"));
        let apply = |rel: &str| {
            Mutation::Apply(vec![EvolutionOp::change(SchemaChange::DeleteRelation {
                relation: rel.into(),
            })])
        };
        let by_statement = build("statement");
        let statement_total = spend(
            &by_statement,
            statement("R"),
            [statement("M"), statement("M")],
        );
        let by_apply = build("apply");
        let apply_total = spend(&by_apply, apply("R"), [apply("M"), apply("M")]);
        assert_eq!(statement_total, apply_total, "both kinds meter alike");
        assert_eq!(by_statement.fingerprint(), by_apply.fingerprint());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn queue_policy_defers_until_reset_and_bounds_the_queue() {
        let root = scratch("queue");
        let wh = Warehouse::open(&root).unwrap();
        let budget = TenantBudget {
            io: 5,
            max_queue: 2,
            ..TenantBudget::default()
        };
        let t = wh
            .tenant_with("patient", budget, AdmissionPolicy::Queue)
            .unwrap();
        for line in [
            "site 1 s1",
            "relation R @1 (K:int)",
            "insert R (1)",
            "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
            "update R insert (2)",
        ] {
            t.execute_mutation(Mutation::Statement(line.into()))
                .unwrap();
        }
        assert!(
            t.stats().unwrap().io_used >= 5,
            "budget spent: {:?}",
            t.stats().unwrap()
        );
        // Over budget: mutations queue in order, up to max_queue.
        let a = t
            .execute_mutation(Mutation::Statement("update R insert (3)".into()))
            .unwrap();
        assert!(matches!(a, Admitted::Queued(0)), "{a:?}");
        let b = t
            .execute_mutation(Mutation::Statement("update R insert (4)".into()))
            .unwrap();
        assert!(matches!(b, Admitted::Queued(1)), "{b:?}");
        let err = t
            .execute_mutation(Mutation::Statement("update R insert (5)".into()))
            .unwrap_err();
        assert!(
            matches!(err, Error::QueueFull { capacity: 2, .. }),
            "{err:?}"
        );
        assert_eq!(t.stats().unwrap().queued, 2);
        // The queued mutations did NOT touch the engine yet.
        assert!(!t.query("V").unwrap().contains('3'));
        // Reset drains the queue in arrival order.
        assert_eq!(t.reset_budget().unwrap(), 2);
        assert_eq!(t.stats().unwrap().queued, 0);
        let v = t.query("V").unwrap();
        assert!(v.contains('3') && v.contains('4'), "{v}");
        assert!(!v.contains('5'), "rejected mutation must not re-appear");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_failing_queued_mutation_is_dropped_and_the_rest_stay_queued() {
        let root = scratch("queue-failure");
        let wh = Warehouse::open(&root).unwrap();
        let budget = TenantBudget {
            io: 1,
            ..TenantBudget::default()
        };
        let t = wh
            .tenant_with("strict", budget, AdmissionPolicy::Queue)
            .unwrap();
        t.execute_mutation(Mutation::Statement("site 1 s1".into()))
            .unwrap();
        for line in [
            "relation R @1 (K:int)",
            "update NoSuch insert (1)",
            "relation S @1 (K:int)",
        ] {
            let admitted = t
                .execute_mutation(Mutation::Statement(line.into()))
                .unwrap();
            assert!(matches!(admitted, Admitted::Queued(_)), "{admitted:?}");
        }
        let hosts = |name: &str| t.read().engine().mkb().has_relation(name);
        assert!(t.reset_budget().is_err());
        assert_eq!(
            t.stats().unwrap().queued,
            1,
            "only the mutation behind the failure"
        );
        assert!(hosts("R") && !hosts("S"), "the first mutation applied");
        assert_eq!(t.reset_budget().unwrap(), 1);
        assert_eq!(t.stats().unwrap().queued, 0);
        assert!(hosts("S"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn read_only_statements_are_neither_gated_nor_charged() {
        let root = scratch("read-only");
        let wh = Warehouse::open(&root).unwrap();
        let budget = TenantBudget {
            io: 1,
            ..TenantBudget::default()
        };
        for policy in [AdmissionPolicy::Reject, AdmissionPolicy::Queue] {
            let t = wh
                .tenant_with(&format!("{policy:?}"), budget, policy)
                .unwrap();
            for line in [
                "site 1 s1",
                "relation R @1 (K:int)",
                "insert R (1)",
                "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
            ] {
                t.reset_budget().unwrap();
                t.execute_mutation(Mutation::Statement(line.into()))
                    .unwrap();
            }
            let spent = t.stats().unwrap();
            assert!(spent.io_used >= budget.io, "over budget: {spent:?}");
            let generation = t.read().engine().mkb().generation();
            for line in [
                "help".to_owned(),
                "query V".to_owned(),
                "show views".to_owned(),
                "show relations".to_owned(),
                "costs".to_owned(),
                "stats".to_owned(),
                "log-stats".to_owned(),
                format!("travel {generation} V"),
                "metrics".to_owned(),
                "metrics prom".to_owned(),
                "exec".to_owned(),
                String::new(),
                "# a note".to_owned(),
            ] {
                let admitted = t.execute_mutation(Mutation::Statement(line.clone()));
                let Ok(Admitted::Executed(text)) = admitted else {
                    panic!("{policy:?} `{line}`: {admitted:?}");
                };
                // A `Query` request is the statement `query <view>`.
                if line == "query V" {
                    assert_eq!(text, t.query("V").unwrap());
                }
            }
            assert_eq!(
                t.stats().unwrap(),
                spent,
                "{policy:?}: reads are charged nothing"
            );
            // A mutation is still gated.
            let gated = t.execute_mutation(Mutation::Statement("update R insert (2)".into()));
            assert!(
                !matches!(gated, Ok(Admitted::Executed(_))),
                "{policy:?}: {gated:?}"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn read_only_statements_share_the_read_lock() {
        use std::sync::mpsc;
        use std::time::Duration;
        let root = scratch("read-lock");
        let wh = Warehouse::open(&root).unwrap();
        let t = wh.tenant("shared").unwrap();
        for line in [
            "site 1 s1",
            "relation R @1 (K:int)",
            "insert R (1)",
            "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
        ] {
            t.execute_mutation(Mutation::Statement(line.into()))
                .unwrap();
        }
        let generation = t.read().engine().mkb().generation();
        let lines = [
            "query V".to_owned(),
            "show views".to_owned(),
            format!("travel {generation} V"),
        ];
        // Another reader holds the lock throughout: each statement must
        // still answer, so none of them waits for the write lock.
        let guard = t.read();
        let (tx, rx) = mpsc::channel();
        let reader = {
            let (t, lines) = (Arc::clone(&t), lines.clone());
            std::thread::spawn(move || {
                for line in lines {
                    let answer = t.execute_mutation(Mutation::Statement(line));
                    if tx.send(answer).is_err() {
                        return;
                    }
                }
            })
        };
        let answers: Vec<_> = lines
            .iter()
            .map_while(|_| rx.recv_timeout(Duration::from_secs(10)).ok())
            .collect();
        drop(guard);
        reader.join().unwrap();
        assert_eq!(answers.len(), lines.len(), "a read waited: {answers:?}");
        for (line, answer) in lines.iter().zip(answers) {
            assert!(
                matches!(answer, Ok(Admitted::Executed(_))),
                "`{line}`: {answer:?}"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_malformed_statement_is_refused_before_admission() {
        let root = scratch("malformed");
        let wh = Warehouse::open(&root).unwrap();
        let budget = TenantBudget {
            io: 1,
            ..TenantBudget::default()
        };
        let t = wh
            .tenant_with("careful", budget, AdmissionPolicy::Queue)
            .unwrap();
        t.execute_mutation(Mutation::Statement("site 1 s1".into()))
            .unwrap();
        let spent = t.stats().unwrap();
        let err = t
            .execute_mutation(Mutation::Statement("site one two".into()))
            .unwrap_err();
        assert!(err.to_string().contains("usage: site <id> <name>"), "{err}");
        assert_eq!(t.stats().unwrap(), spent, "nothing queued, nothing charged");
        // The queue is still empty: the next mutation takes its head.
        let next = t
            .execute_mutation(Mutation::Statement("site 2 s2".into()))
            .unwrap();
        assert!(matches!(next, Admitted::Queued(0)), "{next:?}");
        assert_eq!(t.reset_budget().unwrap(), 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_panic_under_the_write_lock_fails_its_tenant_closed() {
        use crate::protocol::{ErrorCode, RequestBody, ResponseBody};
        use crate::server::{Server, ServerConfig};
        let root = scratch("poison");
        let server = Server::start(
            Arc::new(Warehouse::open(&root).unwrap()),
            ServerConfig::default(),
        );
        let [mut broken, mut healthy] = ["broken", "healthy"].map(|name| {
            let mut c = server.connect().unwrap();
            c.open_session(name).unwrap();
            for line in [
                "site 1 s1",
                "relation R @1 (K:int)",
                "insert R (1)",
                "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
            ] {
                let answer = c.request(RequestBody::Statement { esql: line.into() });
                assert!(
                    matches!(answer, Ok(ResponseBody::Output { .. })),
                    "{answer:?}"
                );
            }
            c
        });
        let tenant = server.warehouse().existing("broken").unwrap();
        let panicked = std::thread::spawn(move || {
            let _shell = tenant.shell.write().unwrap();
            panic!("a write stops half-applied");
        })
        .join();
        assert!(panicked.is_err());
        let every_kind = || {
            [
                RequestBody::Statement {
                    esql: "update R insert (2)".into(),
                },
                RequestBody::Apply {
                    ops: vec![EvolutionOp::insert("R", vec![eve_relational::tup![3]])],
                },
                RequestBody::ResetBudget,
                RequestBody::Query { view: "V".into() },
                RequestBody::Stats,
                RequestBody::Metrics,
                RequestBody::Statement {
                    esql: "query V".into(),
                },
            ]
        };
        // Each kind, refused by the poisoned tenant and answered by the
        // other one on the same server.
        for (body, same) in every_kind().into_iter().zip(every_kind()) {
            let what = format!("{body:?}");
            match broken.request(body).unwrap() {
                ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::Poisoned, "{what}"),
                other => panic!("{what}: {other:?}"),
            }
            let answer = healthy.request(same).unwrap();
            assert!(
                !matches!(answer, ResponseBody::Err { .. }),
                "{what}: {answer:?}"
            );
        }
        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopening_a_warehouse_recovers_tenant_state() {
        let root = scratch("recover");
        let fp = {
            let wh = Warehouse::open(&root).unwrap();
            let t = wh.tenant("durable").unwrap();
            for line in ["site 1 s1", "relation R @1 (K:int)", "insert R (7)"] {
                t.execute_mutation(Mutation::Statement(line.into()))
                    .unwrap();
            }
            t.fingerprint()
        };
        let wh = Warehouse::open(&root).unwrap();
        let t = wh.tenant("durable").unwrap();
        assert_eq!(t.fingerprint(), fp, "recovered tenant is byte-identical");
        std::fs::remove_dir_all(&root).ok();
    }
}
