//! Integration suite for the multi-tenant server: sessions, per-tenant
//! isolation, admission control over the wire, read-your-writes through
//! the rendered-answer cache, and byte-identical convergence of
//! concurrent mutation streams against a serial oracle.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Duration;

use eve_server::protocol::{RequestBody, ResponseBody};
use eve_server::warehouse::{AdmissionPolicy, TenantBudget, Warehouse};
use eve_server::{Client, Error, ErrorCode, Server, ServerConfig};
use eve_system::Shell;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// `relational.render_cache_hits` is process-wide. A test that renders
/// view answers holds this shared; the test that counts the hits its own
/// queries add holds it alone.
static RENDERS: RwLock<()> = RwLock::new(());

fn rendering() -> RwLockReadGuard<'static, ()> {
    RENDERS
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eve-server-it-{}-{}-{tag}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Leading lines of [`writer_script`] that lay down schema, seed rows and
/// the view `V`; the rest are update rounds.
const SETUP_LINES: usize = 7;

/// Update rounds in [`writer_script`]; each adds one matched row to `V`.
const UPDATE_ROUNDS: usize = 6;

/// The statement script a writer applies to its tenant; kept in one place
/// so the serial oracle replays exactly the same lines.
fn writer_script(salt: usize) -> Vec<String> {
    let mut lines = vec![
        "site 1 customers".to_owned(),
        "site 2 flights".to_owned(),
        "relation Customer @1 (Name:text, City:text)".to_owned(),
        "relation FlightRes @2 (PName:text, Dest:text)".to_owned(),
        "insert Customer ('ann', 'Boston')".to_owned(),
        "insert FlightRes ('ann', 'Asia')".to_owned(),
        "view CREATE VIEW V (VE = '~') AS SELECT C.Name FROM Customer C (RR = true), \
         FlightRes F WHERE (C.Name = F.PName) AND (F.Dest = 'Asia')"
            .to_owned(),
    ];
    for i in 0..UPDATE_ROUNDS {
        lines.push(format!("update FlightRes insert ('p{salt}-{i}', 'Asia')"));
        lines.push(format!("update Customer insert ('p{salt}-{i}', 'City{i}')"));
    }
    lines
}

/// The canonical image of `script` applied serially through a plain
/// durable [`Shell`] on a private store under `oracle_root` — what a
/// served tenant's fingerprint must equal byte for byte.
fn serial_oracle(oracle_root: &std::path::Path, name: &str, script: &[String]) -> Vec<u8> {
    let mut oracle = Shell::new();
    oracle
        .execute(&format!("open {}", oracle_root.join(name).display()))
        .unwrap();
    for line in script {
        oracle.execute(line).unwrap();
    }
    oracle.engine().snapshot_state().to_bytes()
}

#[test]
fn sessions_open_attach_and_close() {
    let root = scratch("sessions");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );

    let mut c = server.connect().unwrap();
    let session = c.open_session("alpha").unwrap();
    assert!(session > 0);
    match c.request(RequestBody::Attach).unwrap() {
        ResponseBody::Attached { tenant } => assert_eq!(tenant, "alpha"),
        other => panic!("{other:?}"),
    }
    // A second client gets a distinct session on the same tenant.
    let mut c2 = server.connect().unwrap();
    let session2 = c2.open_session("alpha").unwrap();
    assert_ne!(session, session2);
    // Close, then every session-scoped request is refused with a typed
    // error code.
    assert!(matches!(
        c.request(RequestBody::CloseSession).unwrap(),
        ResponseBody::Closed
    ));
    match c.request(RequestBody::Stats).unwrap() {
        ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("{other:?}"),
    }
    // Unknown session ids (never opened) are equally refused.
    let mut c3 = server.connect().unwrap();
    match c3
        .call(&eve_server::Request {
            session: 999_999,
            body: RequestBody::Stats,
        })
        .unwrap()
        .body
    {
        ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("{other:?}"),
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_client_that_outlives_its_server_pins_no_tenant() {
    let root = scratch("outlive");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("kept").unwrap();
    match c
        .request(RequestBody::Statement {
            esql: "site 1 s1".into(),
        })
        .unwrap()
    {
        ResponseBody::Output { .. } => {}
        other => panic!("{other:?}"),
    }
    // Shutdown must finish although `c` still lives; a hang fails the
    // test instead of stalling it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown hung while a client lived");
    match c.request(RequestBody::Stats) {
        Err(Error::Shutdown { .. }) => {}
        other => panic!("{other:?}"),
    }
    // The live client pins no tenant: its store opens again.
    let reopened = Warehouse::open(&root).unwrap();
    if let Err(e) = reopened.tenant("kept") {
        panic!("{e}");
    }
    drop(c);
    drop(reopened);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn tenants_mutate_in_isolation_and_match_a_serial_oracle() {
    let root = scratch("isolation");
    let oracle_root = scratch("isolation-oracle");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );

    // Interleave two tenants' writers through the same server.
    let mut a = server.connect().unwrap();
    a.open_session("alpha").unwrap();
    let mut b = server.connect().unwrap();
    b.open_session("beta").unwrap();
    let script_a = writer_script(1);
    let script_b = writer_script(2);
    for i in 0..script_a.len().max(script_b.len()) {
        if let Some(line) = script_a.get(i) {
            match a
                .request(RequestBody::Statement { esql: line.clone() })
                .unwrap()
            {
                ResponseBody::Output { .. } => {}
                other => panic!("alpha `{line}`: {other:?}"),
            }
        }
        if let Some(line) = script_b.get(i) {
            match b
                .request(RequestBody::Statement { esql: line.clone() })
                .unwrap()
            {
                ResponseBody::Output { .. } => {}
                other => panic!("beta `{line}`: {other:?}"),
            }
        }
    }

    // Serial oracles: the same scripts through plain durable shells.
    for (name, script) in [("alpha", &script_a), ("beta", &script_b)] {
        let server_fp = server.warehouse().existing(name).unwrap().fingerprint();
        // Not `assert_eq!`: a mismatch would print both multi-KB images.
        assert!(
            server_fp == serial_oracle(&oracle_root, name, script),
            "tenant {name} diverged from serial application"
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&oracle_root).ok();
}

#[test]
fn admission_control_rejects_and_queues_over_the_wire() {
    let _renders = rendering();
    let root = scratch("admission");
    let warehouse = Arc::new(Warehouse::open(&root).unwrap());
    // Pre-create tenants with tight budgets and opposite policies; the
    // setup script is 19 statements, so a budget of 19 I/O units is spent
    // exactly when the script finishes.
    let script = writer_script(0);
    let budget = TenantBudget {
        io: script.len() as u64,
        max_queue: 1,
        ..TenantBudget::default()
    };
    warehouse
        .tenant_with("strict", budget, AdmissionPolicy::Reject)
        .unwrap();
    warehouse
        .tenant_with("patient", budget, AdmissionPolicy::Queue)
        .unwrap();
    let server = Server::start(warehouse, ServerConfig::default());

    for tenant in ["strict", "patient"] {
        let mut c = server.connect().unwrap();
        c.open_session(tenant).unwrap();
        for line in &script {
            match c
                .request(RequestBody::Statement { esql: line.clone() })
                .unwrap()
            {
                ResponseBody::Output { .. } => {}
                other => panic!("{tenant} `{line}`: {other:?}"),
            }
        }
        // Budget spent: stats say so.
        match c.request(RequestBody::Stats).unwrap() {
            ResponseBody::Stats(s) => {
                assert!(s.io_used >= s.io_budget, "{tenant}: {s:?}");
            }
            other => panic!("{other:?}"),
        }
        let over = RequestBody::Statement {
            esql: "update FlightRes insert ('late', 'Asia')".into(),
        };
        let over2 = RequestBody::Statement {
            esql: "update FlightRes insert ('later', 'Asia')".into(),
        };
        if tenant == "strict" {
            match c.request(over).unwrap() {
                ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::BudgetExceeded),
                other => panic!("{other:?}"),
            }
            // Reads still answer while over budget.
            match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
                ResponseBody::Output { text } => assert!(text.contains("ann"), "{text}"),
                other => panic!("{other:?}"),
            }
        } else {
            match c.request(over).unwrap() {
                ResponseBody::Queued { position } => assert_eq!(position, 0),
                other => panic!("{other:?}"),
            }
            // max_queue = 1: the next one cannot even queue.
            match c.request(over2).unwrap() {
                ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::QueueFull),
                other => panic!("{other:?}"),
            }
            // Reset drains the queued mutation into the engine.
            match c.request(RequestBody::ResetBudget).unwrap() {
                ResponseBody::BudgetReset { drained } => assert_eq!(drained, 1),
                other => panic!("{other:?}"),
            }
            // The drained FlightRes row joins into V once the matching
            // Customer rows exist (the fresh budget admits them directly);
            // the overflowed `later` reservation was refused, so no join
            // partner can make it appear.
            for name in ["late", "later"] {
                match c
                    .request(RequestBody::Statement {
                        esql: format!("update Customer insert ('{name}', 'Laterville')"),
                    })
                    .unwrap()
                {
                    ResponseBody::Output { .. } => {}
                    other => panic!("{other:?}"),
                }
            }
            match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
                ResponseBody::Output { text } => {
                    assert!(text.contains("late"), "queued mutation applied: {text}");
                    assert!(!text.contains("later"), "overflowed mutation lost: {text}");
                }
                other => panic!("{other:?}"),
            }
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Clients of one tenant, released together, each sending one `update`
/// when one unit of I/O budget is left: admission, run and charge are one
/// critical section, so exactly one runs.
#[test]
fn clients_of_one_tenant_race_for_the_last_budget_unit() {
    const CLIENTS: usize = 8;
    let root = scratch("race");
    let oracle_root = scratch("race-oracle");
    let warehouse = Arc::new(Warehouse::open(&root).unwrap());
    let budget = TenantBudget {
        io: 1,
        ..TenantBudget::default()
    };
    let policies = [
        ("race-reject", AdmissionPolicy::Reject),
        ("race-queue", AdmissionPolicy::Queue),
    ];
    for (name, policy) in policies {
        warehouse.tenant_with(name, budget, policy).unwrap();
    }
    let server = Server::start(warehouse, ServerConfig::default());
    let setup = ["site 1 s1", "relation R @1 (K:int)"].map(str::to_owned);
    let line = |i: usize| format!("update R insert ({i})");
    for (name, policy) in policies {
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| {
                let mut c = server.connect().unwrap();
                c.open_session(name).unwrap();
                c
            })
            .collect();
        // Each set-up statement spends the whole budget; the reset after
        // the last one leaves exactly one unit.
        for esql in &setup {
            let answer = clients[0].request(RequestBody::Statement { esql: esql.clone() });
            assert!(
                matches!(answer, Ok(ResponseBody::Output { .. })),
                "{answer:?}"
            );
            let reset = clients[0].request(RequestBody::ResetBudget);
            assert!(matches!(
                reset,
                Ok(ResponseBody::BudgetReset { drained: 0 })
            ));
        }
        let start = std::sync::Barrier::new(CLIENTS);
        let answers: Vec<ResponseBody> = std::thread::scope(|scope| {
            let racers: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    let (start, esql) = (&start, line(i));
                    scope.spawn(move || {
                        start.wait();
                        c.request(RequestBody::Statement { esql }).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let ran: Vec<usize> = (0..CLIENTS)
            .filter(|&i| matches!(answers[i], ResponseBody::Output { .. }))
            .collect();
        assert_eq!(ran.len(), 1, "{policy:?}: {answers:?}");
        if policy == AdmissionPolicy::Reject {
            let refused = answers.iter().filter(|a| {
                matches!(a, ResponseBody::Err { code, .. } if *code == ErrorCode::BudgetExceeded)
            });
            assert_eq!(refused.count(), CLIENTS - 1, "{answers:?}");
            continue;
        }
        // The others were parked, each at its own place in the queue.
        let mut parked = vec![None; CLIENTS - 1];
        for (i, answer) in answers.iter().enumerate() {
            if let ResponseBody::Queued { position } = answer {
                let at = usize::try_from(*position).unwrap();
                assert!(parked[at].replace(i).is_none(), "{answers:?}");
            }
        }
        match clients[0].request(RequestBody::ResetBudget).unwrap() {
            ResponseBody::BudgetReset { drained } => assert_eq!(drained, (CLIENTS - 1) as u64),
            other => panic!("{other:?}"),
        }
        // The drain applied them in the order they were parked: the
        // tenant equals a serial application in that order, and not in
        // the reverse one.
        let mut script = setup.to_vec();
        script.push(line(ran[0]));
        let queued: Vec<String> = parked.into_iter().map(|i| line(i.unwrap())).collect();
        let fingerprint = server.warehouse().existing(name).unwrap().fingerprint();
        let in_order = [&script[..], &queued].concat();
        let reversed = [&script[..], &queued.into_iter().rev().collect::<Vec<_>>()].concat();
        assert!(fingerprint == serial_oracle(&oracle_root, "in-order", &in_order));
        assert!(fingerprint != serial_oracle(&oracle_root, "reversed", &reversed));
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&oracle_root).ok();
}

#[test]
fn apply_batches_and_statements_share_one_durable_history() {
    let _renders = rendering();
    let root = scratch("apply");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("mixed").unwrap();
    for line in [
        "site 1 s1",
        "relation R @1 (K:int, V:text)",
        "insert R (1, 'a')",
        "view CREATE VIEW V (VE = '~') AS SELECT R.K FROM R (RR = true)",
    ] {
        c.request(RequestBody::Statement { esql: line.into() })
            .unwrap();
    }
    // An op batch over the wire, like a log record's payload.
    match c
        .request(RequestBody::Apply {
            ops: vec![eve_sync::EvolutionOp::insert(
                "R",
                vec![eve_relational::tup![2, "b"], eve_relational::tup![3, "c"]],
            )],
        })
        .unwrap()
    {
        ResponseBody::Output { text } => assert!(text.contains("applied batch"), "{text}"),
        other => panic!("{other:?}"),
    }
    match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
        ResponseBody::Output { text } => {
            assert!(text.contains('2') && text.contains('3'), "{text}");
        }
        other => panic!("{other:?}"),
    }

    // The whole mixed history is durable: reopen the warehouse and the
    // tenant recovers to the same bytes.
    let fp = server.warehouse().existing("mixed").unwrap().fingerprint();
    server.shutdown();
    let reopened = Warehouse::open(&root).unwrap();
    assert_eq!(reopened.tenant("mixed").unwrap().fingerprint(), fp);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn malformed_statements_come_back_as_typed_errors_not_dead_connections() {
    let root = scratch("badstmt");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("t").unwrap();
    match c
        .request(RequestBody::Statement {
            esql: "frobnicate the warehouse".into(),
        })
        .unwrap()
    {
        ResponseBody::Err { code, detail } => {
            assert_eq!(code, ErrorCode::Engine);
            assert!(detail.contains("unknown"), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    // The connection (and session) survive the failed statement.
    match c.request(RequestBody::Stats).unwrap() {
        ResponseBody::Stats { .. } => {}
        other => panic!("{other:?}"),
    }
    match c
        .request(RequestBody::Query {
            view: "NoSuchView".into(),
        })
        .unwrap()
    {
        ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::Engine),
        other => panic!("{other:?}"),
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn n_queries_move_their_kind_and_tenant_metrics_by_n() {
    const N: u64 = 7;
    let _renders = rendering();
    let root = scratch("metric-handles");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("handles").unwrap();
    for line in writer_script(0) {
        c.request(RequestBody::Statement { esql: line }).unwrap();
    }
    let registry = server.metrics_registry();
    let moved = || {
        (
            registry.counter("server.requests.query").get(),
            registry
                .histogram("server.latency_us.query")
                .snapshot()
                .count(),
            registry
                .histogram("server.tenant.handles.latency_us")
                .snapshot()
                .count(),
        )
    };
    let before = moved();
    for _ in 0..N {
        match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
            ResponseBody::Output { .. } => {}
            other => panic!("{other:?}"),
        }
    }
    // The response is sent after its request is recorded.
    assert_eq!(moved(), (before.0 + N, before.1 + N, before.2 + N));
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn metrics_request_returns_server_and_engine_families() {
    let _renders = rendering();
    let root = scratch("metrics");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );

    let mut c = server.connect().unwrap();
    c.open_session("obs").unwrap();
    for line in writer_script(0) {
        c.request(RequestBody::Statement { esql: line }).unwrap();
    }
    match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
        ResponseBody::Output { .. } => {}
        other => panic!("{other:?}"),
    }

    let snap = c.metrics().unwrap();
    // Server-side families: the statements and the query were counted and
    // timed, per request type and per tenant.
    assert!(snap.counters["server.requests.statement"] >= 1, "{snap:?}");
    assert!(snap.counters["server.requests.query"] >= 1);
    assert!(snap.histograms["server.latency_us.query"].count() >= 1);
    assert!(snap.histograms["server.tenant.obs.latency_us"].count() >= 1);
    // Engine instance families merged into the same image.
    assert!(snap.counters.contains_key("mkb.index_hits"));
    assert!(snap.counters.contains_key("cache.partner_hits"));
    // The server's own registry only holds server.* names — everything
    // else came in through the merge with the global/engine snapshot.
    let local = server.metrics_registry().snapshot();
    assert!(local.counters.keys().all(|k| k.starts_with("server.")));
    assert!(local.histograms.keys().all(|k| k.starts_with("server.")));

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// The view `V`'s answer over the wire.
fn query_v(c: &mut Client) -> String {
    match c.request(RequestBody::Query { view: "V".into() }).unwrap() {
        ResponseBody::Output { text } => text,
        other => panic!("{other:?}"),
    }
}

/// Runs each line as a statement; every one must answer `Output`.
fn run_lines(c: &mut Client, lines: &[&str]) {
    for line in lines {
        match c
            .request(RequestBody::Statement {
                esql: (*line).to_owned(),
            })
            .unwrap()
        {
            ResponseBody::Output { .. } => {}
            other => panic!("`{line}`: {other:?}"),
        }
    }
}

/// Two relations on two sites, `M` declared equivalent to `R` but holding
/// one row `R` lacks, and the view `V` over `R`.
const REPLICA_SETUP: &[&str] = &[
    "site 1 tokyo",
    "site 2 osaka",
    "relation R @1 (K:int, P:int)",
    "relation M @2 (K:int, P:int)",
    "insert R (1, 10)",
    "insert R (2, 20)",
    "insert M (1, 10)",
    "insert M (2, 20)",
    "insert M (4, 40)",
    "pc R (K, P) = M (K, P)",
    "view CREATE VIEW V (VE = '~') AS SELECT X.K, X.P AS XP FROM R X (RR = true)",
];

#[test]
fn a_query_reads_the_writes_its_client_applied() {
    let _renders = rendering();
    let root = scratch("ryw");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("ryw").unwrap();
    run_lines(&mut c, REPLICA_SETUP);
    let before = query_v(&mut c);
    assert!(
        before.starts_with("V(K INT, XP INT) [2 tuples]\n"),
        "{before}"
    );
    // Each write lands on the answer the query before it left rendered.
    run_lines(&mut c, &["update R insert (3, 30)"]);
    let after_statement = query_v(&mut c);
    assert!(after_statement.contains("(3, 30)"), "{after_statement}");
    match c
        .request(RequestBody::Apply {
            ops: vec![eve_sync::EvolutionOp::insert(
                "R",
                vec![eve_relational::tup![5, 50]],
            )],
        })
        .unwrap()
    {
        ResponseBody::Output { .. } => {}
        other => panic!("{other:?}"),
    }
    let after_apply = query_v(&mut c);
    assert!(
        after_apply.starts_with("V(K INT, XP INT) [4 tuples]\n"),
        "{after_apply}"
    );
    assert!(after_apply.contains("(5, 50)"), "{after_apply}");
    run_lines(&mut c, &["update R delete (1, 10)"]);
    let after_delete = query_v(&mut c);
    assert!(!after_delete.contains("(1, 10)"), "{after_delete}");
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_repeated_query_is_answered_once_rendered() {
    // Alone: no other test's queries move the process-wide counters.
    let _renders = RENDERS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let root = scratch("render-once");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("once").unwrap();
    run_lines(&mut c, REPLICA_SETUP);
    run_lines(&mut c, &["update R insert (3, 30)"]);
    let hits = eve_trace::global().counter("relational.render_cache_hits");
    let formatted = eve_trace::global().counter("relational.rows_formatted");
    let (hits_before, formatted_before) = (hits.get(), formatted.get());
    let first = query_v(&mut c);
    let second = query_v(&mut c);
    assert_eq!(first, second, "no write between them: the same bytes");
    assert_eq!(hits.get() - hits_before, 1, "the second query is a hit");
    assert_eq!(
        formatted.get() - formatted_before,
        3,
        "the first query renders V's three rows, the second none"
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_change_that_rewrites_a_view_drops_its_rendered_answer() {
    let _renders = rendering();
    let root = scratch("render-change");
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let mut c = server.connect().unwrap();
    c.open_session("evolving").unwrap();
    run_lines(&mut c, REPLICA_SETUP);
    // Rendered, and rendered again from what the first query kept.
    let before = query_v(&mut c);
    assert_eq!(query_v(&mut c), before);
    assert!(!before.contains("(4, 40)"), "{before}");
    // `M` holds a row `R` lacks, so deleting `R` re-evaluates `V` over `M`.
    run_lines(&mut c, &["change delete-relation R"]);
    let after = query_v(&mut c);
    assert!(after.contains("(4, 40)"), "{after}");
    // The same script through a plain shell, rendered for the first time.
    let mut oracle = Shell::new();
    for line in REPLICA_SETUP.iter().chain(&["change delete-relation R"]) {
        oracle.execute(line).unwrap();
    }
    assert_eq!(after, oracle.execute("query V").unwrap());
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// What one client thread saw: requests issued, and how many of them came
/// back as a typed `Err` response or a transport failure.
#[derive(Debug, Default)]
struct Tally {
    requests: usize,
    errors: usize,
}

impl Tally {
    fn send(&mut self, client: &mut Client, body: RequestBody) {
        self.requests += 1;
        match client.request(body) {
            Ok(ResponseBody::Err { .. }) | Err(_) => self.errors += 1,
            Ok(_) => {}
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.requests += other.requests;
        self.errors += other.errors;
    }
}

/// Drives `tenants × clients_per_tenant` sessions — all opened up front
/// and live for the whole run — through one server: per tenant one writer
/// streaming [`writer_script`], the other sessions readers issuing
/// `reads_per_client` alternating view queries and stats probes while the
/// writers run, multiplexed over a fixed handful of OS threads. Asserts the
/// serving contract: zero typed errors, every scripted request issued and
/// timed exactly once by the server, and every tenant byte-identical to
/// the same script applied serially through a plain durable [`Shell`].
fn assert_population_converges(
    tag: &str,
    tenants: usize,
    clients_per_tenant: usize,
    reads_per_client: usize,
) {
    const DRIVER_THREADS: usize = 16;
    let _renders = rendering();
    let root = scratch(&format!("{tag}-warehouse"));
    let oracle_root = scratch(&format!("{tag}-oracle"));
    let server = Server::start(
        Arc::new(Warehouse::open(&root).unwrap()),
        ServerConfig::default(),
    );
    let tenant_name = |t: usize| format!("tenant-{t:02}");

    let mut writers: Vec<Client> = Vec::with_capacity(tenants);
    let mut reader_pools: Vec<Vec<Client>> = (0..DRIVER_THREADS).map(|_| Vec::new()).collect();
    for t in 0..tenants {
        for c in 0..clients_per_tenant {
            let mut client = server.connect().unwrap();
            client.open_session(&tenant_name(t)).unwrap();
            if c == 0 {
                writers.push(client);
            } else {
                reader_pools[(t * clients_per_tenant + c) % DRIVER_THREADS].push(client);
            }
        }
    }

    let mut total = Tally::default();
    // Phase 1 — every writer lays down its tenant's schema and view, so
    // the readers' queries always have a target.
    std::thread::scope(|scope| {
        let setups: Vec<_> = writers
            .iter_mut()
            .enumerate()
            .map(|(t, writer)| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for line in writer_script(t).into_iter().take(SETUP_LINES) {
                        tally.send(writer, RequestBody::Statement { esql: line });
                    }
                    tally
                })
            })
            .collect();
        for handle in setups {
            total.absorb(handle.join().unwrap());
        }
    });
    // Phase 2 — writers stream their update rounds while every reader
    // session queries and probes concurrently.
    std::thread::scope(|scope| {
        let mut load = Vec::new();
        for (t, writer) in writers.iter_mut().enumerate() {
            load.push(scope.spawn(move || {
                let mut tally = Tally::default();
                for line in writer_script(t).into_iter().skip(SETUP_LINES) {
                    tally.send(writer, RequestBody::Statement { esql: line });
                }
                tally
            }));
        }
        for pool in &mut reader_pools {
            load.push(scope.spawn(move || {
                let mut tally = Tally::default();
                for r in 0..reads_per_client {
                    for client in pool.iter_mut() {
                        let body = if r % 2 == 0 {
                            RequestBody::Query { view: "V".into() }
                        } else {
                            RequestBody::Stats
                        };
                        tally.send(client, body);
                    }
                }
                tally
            }));
        }
        for handle in load {
            total.absorb(handle.join().unwrap());
        }
    });

    assert_eq!(total.errors, 0, "typed errors during the load");
    let script_len = SETUP_LINES + 2 * UPDATE_ROUNDS;
    assert_eq!(
        total.requests,
        tenants * script_len + tenants * (clients_per_tenant - 1) * reads_per_client,
        "every scripted request must be accounted for"
    );
    // The server timed exactly the population the clients issued: one
    // `server.latency_us.*` sample per statement, query and stats probe.
    let snapshot = server.metrics_registry().snapshot();
    let timed: u64 = ["statement", "query", "stats"]
        .iter()
        .filter_map(|kind| {
            snapshot
                .histograms
                .get(&format!("server.latency_us.{kind}"))
        })
        .map(eve_trace::HistogramSnapshot::count)
        .sum();
    assert_eq!(timed, total.requests as u64);

    for t in 0..tenants {
        let name = tenant_name(t);
        let tenant = server.warehouse().existing(&name).unwrap();
        // Not `assert_eq!`: a mismatch would print both multi-KB images.
        assert!(
            tenant.fingerprint() == serial_oracle(&oracle_root, &name, &writer_script(t)),
            "tenant {name} diverged from serial application"
        );
        // Seed row + one matched pair per round, all Dest = 'Asia'.
        let view_rows = tenant.query("V").unwrap().lines().count() - 1;
        assert_eq!(view_rows, 1 + UPDATE_ROUNDS, "tenant {name}");
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&oracle_root).ok();
}

#[test]
fn serve_sustains_1000_clients_across_8_tenants_byte_identical() {
    // 8 tenants × 128 sessions = 1,024 concurrently open clients.
    assert_population_converges("serve-1k", 8, 128, 2);
}

#[test]
fn small_populations_also_converge() {
    assert_population_converges("serve-small", 2, 3, 1);
}
